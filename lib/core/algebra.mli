(** The extended relational algebra: classical operators plus the GMDJ.

    This is the target language of the SubqueryToGMDJ translation and of
    the join-unnesting baseline; expressions here contain {e no} nested
    subqueries.  There is one GMDJ node and one aggregation node:

    - [Md] is the GMDJ of Definition 2.1.  Its optional [completion]
      holds the rules the optimizer compiled from an enclosing selection
      (Section 4.2); completion is a selection inside the node, not a
      different operator.
    - [Group_by] is every aggregation.  As in Gray et al.'s data cube,
      the global aggregate is GROUP BY over the empty key set and
      DISTINCT is GROUP BY over every column with no aggregates. *)

open Subql_relational
open Subql_gmdj

type join_kind = Ops.join_kind = Inner | Left_outer | Semi | Anti

type t =
  | Table of string
  | Rename of string * t  (** alias: requalify all attributes *)
  | Select of Expr.t * t
  | Project of (Expr.t * string) list * t  (** computed, unqualified outputs *)
  | Project_cols of { cols : (string option * string) list; input : t }
  | Project_rel of string list * t
      (** keep exactly the columns qualified with one of the given
          aliases — used to drop auxiliary count columns after subquery
          evaluation *)
  | Add_rownum of string * t
  | Product of t * t
  | Join of { kind : join_kind; cond : Expr.t; left : t; right : t }
  | Group_by of {
      keys : (string option * string) list option;
      aggs : Aggregate.spec list;
      input : t;
    }
      (** Output: the key columns, then one unqualified column per
          aggregate, groups in first-seen order.  [keys = None] groups
          on every input column (with [aggs = \[\]] that is DISTINCT,
          and [δπ_K] is [Some K] with no aggregates).  [keys = Some \[\]]
          is the global aggregate: exactly one row, even on empty
          input. *)
  | Md of {
      base : t;
      detail : t;
      blocks : Gmdj.block list;
      completion : Gmdj.completion option;
    }
      (** [MD(base, detail, blocks)]; with [completion = Some c] it is
          [σ[C](MD(...))] with [C] compiled into the rules [c], and only
          the surviving base rows are returned. *)
  | Union_all of t * t
  | Diff_all of t * t
  | Sort of {
      by : ((string option * string) * [ `Asc | `Desc ]) list;
      limit : int option;
      input : t;
    }
      (** ORDER BY then LIMIT: a stable sort on [by] (empty: input order
          kept), then the first [limit] rows *)

val children : t -> t list
(** Direct subplans, in evaluation order (left or base first) — the
    order [Eval.eval_analyzed]'s [Explain.node] children follow, so
    analysis trees built with this walk zip positionally against
    measured ones. *)

val map_children : (t -> t) -> t -> t
(** Rebuild a node with [f] applied to each operand. *)

val tables : t -> string list
(** Every base table the plan scans, sorted, deduplicated. *)

val schema_of : lookup:(string -> Schema.t) -> t -> Schema.t
(** Output schema; [lookup] resolves base-table names. *)

val schema_diag : lookup:(string -> Schema.t) -> t -> (Schema.t, Diag.t) result
(** Exception-free {!schema_of}: inference failures come back as a
    structured diagnostic ([SCH001]–[SCH004], [TYP001]/[TYP002]) whose
    [path] names the offending plan node — the entry point the static
    analyzer builds on.  [schema_of] is this plus re-raising the legacy
    exception. *)

val guard : path:string list -> (unit -> ('a, Diag.t) result) -> ('a, Diag.t) result
(** Run a node-local schema operation, turning the exceptions it may
    raise into a diagnostic at [path]: unknown table [SCH004], unknown
    attribute [SCH001], ambiguous attribute [SCH002], [Invalid_argument]
    [SCH003], [Value.Type_error] [TYP002]. *)

val node_label : t -> string
(** The operator name used in diagnostic plan paths ("Select", "Md", …). *)

val equal : t -> t -> bool
(** Structural equality. *)

val detail_alias : t -> string option
(** The alias naming a relation occurrence: [Some a] for [Rename (a, _)],
    [None] otherwise.  Used by the coalescing rule. *)

val same_occurrence_modulo_alias : t -> t -> bool
(** Are the two expressions the same relation occurrence up to their
    outermost alias?  (Prop. 4.1's "same underlying table" test.) *)

val group_by_label : (string option * string) list option -> string
(** A [Group_by] node's label, as ["GroupBy \[o.k\]"]; ["GroupBy \[*\]"]
    groups on every column. *)

val sort_label : ((string option * string) * [ `Asc | `Desc ]) list -> int option -> string
(** A [Sort] node's label, as ["Sort \[o.k asc, n desc\] limit 3"]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line indented plan rendering. *)
