(** A cost model for the extended algebra.

    The paper's conclusion observes that GMDJ evaluation "has a
    well-defined cost" and is therefore easy to put under a cost-based
    optimizer that selects between joins, set-difference and GMDJs.
    This module provides that model: cardinality estimation with
    textbook selectivity heuristics plus per-operator cost formulas for
    both physical strategies (hash vs nested loop, hash-partitioned GMDJ
    vs full scan).

    Cardinalities are estimated from per-table statistics (row counts
    and per-column distinct counts, computed exactly over the in-memory
    catalog).  Estimates are heuristic — their purpose is plan {e
    choice}, not precision; see {!Planner}. *)

open Subql_relational

module Stats : sig
  type t

  val of_catalog : Catalog.t -> t
  (** Exact row counts and per-column distinct counts for every table. *)

  val table_rows : t -> string -> float
  (** Defaults to 1000.0 for unknown tables. *)

  val table_rows_opt : t -> string -> float option
  (** [None] for tables absent from the statistics — the sound
      counterpart of {!table_rows}'s guess. *)

  val column_distinct : t -> table:string -> column:string -> float option
end

type estimate = {
  rows : float;  (** estimated output cardinality *)
  cost : float;  (** accumulated work in tuple-operation units *)
}

val estimate : Stats.t -> config:Eval.config -> Algebra.t -> estimate
(** Estimate the given plan under the given physical configuration. *)

val memory_height : Stats.t -> config:Eval.config -> Algebra.t -> float
(** Estimated peak rows the streaming executor holds materialized while
    running the plan — the planning-time counterpart of the measured
    ["eval.peak_materialized_rows"] gauge — from point estimates and
    without a spill cap.  One recursion (shared with
    {!memory_height_certified} and {!memory_heights}) models what
    {!Eval} holds: pipelined operators (Select, Project, Rename,
    Add_rownum, Union_all, the GMDJ detail side) add nothing of their
    own; Join, Product and Diff_all hold their right input while the
    left streams; breakers hold their result (Sort and the GMDJ base
    also their collected input); tables (and aliases over tables) are
    zero-copy inputs and free; and the root's result is collected once
    more.  Heuristic, like {!estimate}. *)

val selectivity : Stats.t -> origins:(string * string) list -> Expr.t -> float
(** Predicate selectivity.  [origins] maps relation aliases to base
    tables so equality on a column with a known distinct count can use
    1/ndv; other equalities are 0.1, ranges 0.33, conjunction
    multiplies, disjunction adds (capped), negation complements.
    Clamped to [\[1e-6, 1.0\]]. *)

val block_hashable : Expr.t -> bool
(** Whether a GMDJ condition has a hash key: an [=] or [<=>] conjunct
    between two attributes with different qualifiers.  The syntactic
    twin of {!Subql_relational.Expr.split_equi} finding a key, which the
    [`Hash] strategy (and a spilling join) needs. *)

(** {1 Certified cardinality intervals}

    Where {!estimate} picks a plausible point, the interval analysis
    computes {e sound} per-operator [\[lo, hi\]] row bounds by abstract
    interpretation over the plan: exact catalog cardinalities at the
    leaves, selections widening only the lower bound (no guessed
    selectivities) — except that a predicate whose integer comparisons
    pin an attribute to an empty value range is {e proven} dead and
    collapses to [\[0, 0\]] — outer joins and GMDJ completion widening
    conservatively, and distinct-count products — genuine upper bounds
    on group counts — providing the only other narrowing.  These bounds back
    the admission controller's certified memory ceiling and the fuzz
    containment property (observed rows ∈ certified interval, in every
    execution mode). *)

module Interval : sig
  type t = { lo : float; hi : float }

  val v : float -> float -> t
  (** [v lo hi], clamped to [0 <= lo <= hi]. *)

  val exact : float -> t

  val top : t
  (** [\[0, ∞)] — the no-information interval (unknown table). *)

  val contains : t -> float -> bool
  (** Membership with a small float tolerance. *)

  val is_finite : t -> bool

  val fmt_bound : float -> string
  (** One bound: integral values exactly, ["inf"] for infinity. *)

  val to_string : t -> string
  (** [\[lo, hi\]] with integral bounds printed exactly, [inf] for the
      unbounded top. *)

  val pp : Format.formatter -> t -> unit

  type tree = {
    op : string;  (** display label, as in EXPLAIN ({!Eval.node_label}) *)
    path : string list;  (** plan path from the root, [Typing]-style *)
    ival : t;
    children : tree list;  (** positionally aligned with {!Algebra.children} *)
  }
end

val intervals : Stats.t -> Algebra.t -> Interval.tree
(** Sound per-operator cardinality intervals for the plan.  The tree
    mirrors the plan shape ({!Algebra.children} order), so it zips
    positionally against {!Eval.eval_analyzed}'s measured
    [Explain.node] tree. *)

type certificate = {
  bound : float;  (** certified peak resident rows (sound upper bound) *)
  spill_bound : float;
      (** certified rows pushed to temp heap files under the config's
          spill budget; [0] with no budget *)
  argmax_op : string;  (** operator holding the largest certified live set *)
  argmax_path : string list;
  argmax_rows : float;  (** that operator's certified live rows *)
  tree : Interval.tree;  (** the per-operator intervals the bound came from *)
}

val memory_height_certified : Stats.t -> config:Eval.config -> Algebra.t -> certificate
(** The {!memory_height} recursion under the config's spill budget,
    evaluated over interval upper bounds instead of point estimates.
    Breaker state the spilling operators bound (GROUP BY / DISTINCT
    hash state, partitionable join inputs) is charged at most
    [spill_budget_rows], the excess accumulating as [spill_bound].
    Without a spill budget, a sound ceiling on the executor's
    ["eval.peak_materialized_rows"] whenever true cardinalities respect
    their intervals.  Infinite when the plan
    reads a table the statistics don't cover.  The argmax names the
    operator holding the most rows of its own — what an [ADM001]
    rejection should point at. *)

val memory_heights : Stats.t -> config:Eval.config -> Algebra.t -> float * certificate
(** [(resident, certificate)]: the {!memory_height_certified}
    recursion, under the spill budget, over point estimates and over
    certified bounds — what admission gates on
    ({!Subql_server.Admission}).  Both come from one interval tree and
    one {!estimate} pass.  With no spill budget, [resident] equals
    {!memory_height}. *)
