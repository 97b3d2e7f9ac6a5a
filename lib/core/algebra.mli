(** The extended relational algebra: classical operators plus the GMDJ.

    This is the target language of the SubqueryToGMDJ translation and of
    the join-unnesting baseline; expressions here contain {e no} nested
    subqueries.  [Md] is the GMDJ of Definition 2.1; [Md_completed] is a
    GMDJ fused with the completion rules the optimizer derived from an
    enclosing selection (Section 4.2). *)

open Subql_relational
open Subql_gmdj

type join_kind = Ops.join_kind = Inner | Left_outer | Semi | Anti

type t =
  | Table of string
  | Rename of string * t  (** alias: requalify all attributes *)
  | Select of Expr.t * t
  | Project of (Expr.t * string) list * t  (** computed, unqualified outputs *)
  | Project_cols of { cols : (string option * string) list; distinct : bool; input : t }
  | Project_rel of string list * t
      (** keep exactly the columns qualified with one of the given
          aliases — used to drop auxiliary count columns after subquery
          evaluation *)
  | Add_rownum of string * t
  | Product of t * t
  | Join of { kind : join_kind; cond : Expr.t; left : t; right : t }
  | Group_by of { keys : (string option * string) list; aggs : Aggregate.spec list; input : t }
  | Aggregate_all of Aggregate.spec list * t
  | Md of { base : t; detail : t; blocks : Gmdj.block list }
  | Md_completed of {
      base : t;
      detail : t;
      blocks : Gmdj.block list;
      completion : Gmdj.completion;
    }
      (** [σ[C](MD(base, detail, blocks))] with [C] compiled into
          completion rules; survivors only. *)
  | Union_all of t * t
  | Diff_all of t * t
  | Distinct of t
  | Sort of {
      by : ((string option * string) * [ `Asc | `Desc ]) list;
      limit : int option;
      input : t;
    }
      (** ORDER BY then LIMIT: a stable sort on [by] (empty: input order
          kept), then the first [limit] rows *)

val schema_of : lookup:(string -> Schema.t) -> t -> Schema.t
(** Output schema; [lookup] resolves base-table names. *)

val schema_diag : lookup:(string -> Schema.t) -> t -> (Schema.t, Diag.t) result
(** Exception-free {!schema_of}: inference failures come back as a
    structured diagnostic ([SCH001]–[SCH004], [TYP001]/[TYP002]) whose
    [path] names the offending plan node — the entry point the static
    analyzer builds on.  [schema_of] is this plus re-raising the legacy
    exception. *)

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

val sort_label : ((string option * string) * [ `Asc | `Desc ]) list -> int option -> string
(** A [Sort] node's label, as ["Sort \[o.k asc, n desc\] limit 3"]. *)

val pp : Format.formatter -> t -> unit
(** Multi-line indented plan rendering. *)
