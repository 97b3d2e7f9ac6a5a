(** The nested query algebra of Section 2.1 (after Bækgaard & Mark).

    A query is [σ[W](B)] with a final projection; [W] may contain
    subquery predicates:

    - nested comparison selection          [σ(x φ S)B]
    - quantified nested comparison         [σ(x φ_some S)B], [σ(x φ_all S)B]
    - nested existential selection         [σ(∃S)B], [σ(∄S)B]
    - IN / NOT IN sugar                    [σ(x ∈ S)B ≡ x =_some S], etc.

    Subqueries range over a source relation and may be correlated with
    any enclosing scope through {e qualified} attribute references (the
    free references of the paper); unqualified references always resolve
    to the innermost scope.  Subquery predicates nest arbitrarily
    (linear nesting, Section 3.2).

    Semantics note: following the paper (Sec. 3.3), negation is defined
    by normal-form rewriting — De Morgan push-down plus the quantifier
    flip rules — and the subquery forms take the count-based meanings of
    Table 1.  Every engine in this repository (naive iteration, GMDJ,
    join unnesting) implements exactly these semantics, so results are
    directly comparable. *)

open Subql_relational

type quant = Qsome | Qall

(** Subquery-free relation expressions, used for query bases and
    subquery sources. *)
type base =
  | Btable of string  (** named catalog table *)
  | Bselect of Expr.t * base  (** plain (non-nested) selection *)
  | Bproject of { cols : string list; distinct : bool; input : base }
      (** projection onto bare column names *)
  | Bproduct of base * base
      (** cross product — multi-relation FROM clauses (join predicates
          live in the WHERE clause) *)
  | Balias of string * base  (** requalify all attributes *)

type sub_kind =
  | Exists
  | Not_exists
  | Cmp_scalar of Expr.t * Expr.cmp * string
      (** [lhs φ (SELECT col FROM ...)]: true iff exactly one matching
          row satisfies the comparison (Table 1, row 1). *)
  | Cmp_agg of Expr.t * Expr.cmp * Aggregate.func
      (** [lhs φ (SELECT f(y) FROM ...)]: 3VL comparison against the
          aggregate over the range (Table 1, row 2). *)
  | Quant of Expr.t * Expr.cmp * quant * string
      (** [lhs φ SOME/ALL (SELECT col FROM ...)] (Table 1, rows 3–4). *)
  | In_ of Expr.t * string
  | Not_in of Expr.t * string

type pred =
  | Ptrue
  | Atom of Expr.t
  | Pand of pred * pred
  | Por of pred * pred
  | Pnot of pred
  | Sub of sub

and sub = { kind : sub_kind; source : base; s_alias : string; s_where : pred }

type select =
  | Select_all
  | Select_cols of (string option * string) list
  | Select_exprs of (Expr.t * string) list
  | Select_grouped of grouped
      (** GROUP BY / HAVING over the qualifying rows *)

and grouped = {
  keys : (string option * string) list;  (** GROUP BY columns; [] = whole-relation aggregation *)
  aggs : Aggregate.spec list;
      (** every aggregate to compute (select-list and HAVING) *)
  having : Expr.t option;
      (** over the key columns and aggregate result columns *)
  out : (Expr.t * string) list;  (** the final projection *)
}

type order_key = (string option * string) * [ `Asc | `Desc ]

type query = {
  q_base : base;
  q_alias : string;
  q_where : pred;
  q_select : select;
  q_distinct : bool;
  q_order_by : order_key list;
      (** over the output columns of [q_select], after DISTINCT *)
  q_limit : int option;
}
(** [q_alias] names the base-values relation for correlation references.
    The empty string means "no outer rename": the base's own aliases
    (e.g. those introduced by {!Balias} under a {!Bproduct}) stay
    visible — this is how multi-relation FROM clauses are scoped.

    The SQL tail — [q_select], then DISTINCT, then ORDER BY, then
    LIMIT — is part of the query, so every engine evaluates the whole
    statement. *)

(** {1 Constructors} *)

val table : string -> base

val query :
  ?select:select ->
  ?distinct:bool ->
  ?order_by:order_key list ->
  ?limit:int ->
  base:base ->
  alias:string ->
  pred ->
  query

val exists : ?where:pred -> base -> string -> pred

val not_exists : ?where:pred -> base -> string -> pred

val some_ : Expr.t -> Expr.cmp -> ?where:pred -> base -> string -> col:string -> pred

val all_ : Expr.t -> Expr.cmp -> ?where:pred -> base -> string -> col:string -> pred

val in_ : Expr.t -> ?where:pred -> base -> string -> col:string -> pred

val not_in : Expr.t -> ?where:pred -> base -> string -> col:string -> pred

val scalar_cmp : Expr.t -> Expr.cmp -> ?where:pred -> base -> string -> col:string -> pred

val agg_cmp : Expr.t -> Expr.cmp -> Aggregate.func -> ?where:pred -> base -> string -> pred

val atom : Expr.t -> pred

val pand : pred -> pred -> pred

val por : pred -> pred -> pred

val pnot : pred -> pred

val conjoin_preds : pred list -> pred

val scope_aliases : query -> string list
(** The aliases a subquery of this query may correlate against:
    [\[q_alias\]], or the base's own aliases when [q_alias] is empty. *)

val base_aliases : base -> string list

(** {1 Traversal} *)

val fold_subs : ('acc -> sub -> 'acc) -> 'acc -> pred -> 'acc
(** Fold over the top-level subqueries of a predicate (not recursing
    into their bodies). *)

val pp_pred : Format.formatter -> pred -> unit

val pp_query : Format.formatter -> query -> unit

val pp_base : Format.formatter -> base -> unit
