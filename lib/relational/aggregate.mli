(** SQL aggregate functions with standard NULL semantics.

    [Count_star] counts rows; [Count e] counts rows where [e] is not
    NULL; [Sum]/[Min]/[Max]/[Avg] ignore NULLs and yield NULL on an
    empty (or all-NULL) input — the behaviour the paper's ALL-vs-max
    footnote hinges on.  [First e] yields the first non-NULL value of
    [e] in detail arrival order (NULL on an empty or all-NULL input):
    its accumulator merge is associative and has an identity but is
    {e not} commutative ({!order_sensitive}). *)

type func =
  | Count_star
  | Count of Expr.t
  | Sum of Expr.t
  | Min of Expr.t
  | Max of Expr.t
  | Avg of Expr.t
  | First of Expr.t

type spec = { func : func; name : string }
(** [name] is the output column name (the [f(y) → fy] renaming). *)

val count_star : string -> spec
val count : Expr.t -> string -> spec
val sum : Expr.t -> string -> spec
val min_ : Expr.t -> string -> spec
val max_ : Expr.t -> string -> spec
val avg : Expr.t -> string -> spec
val first : Expr.t -> string -> spec

val arg : func -> Expr.t option
(** The aggregated expression; [None] for [Count_star]. *)

val map_arg : (Expr.t -> Expr.t) -> func -> func
(** The same function over the rewritten argument. *)

val output_ty : Schema.t array -> spec -> Value.ty
(** Result type of the aggregate over rows of the innermost frame. *)

val equal_func : func -> func -> bool
(** Same function over structurally equal arguments. *)

val order_sensitive : func -> bool
(** [true] iff the accumulator merge depends on which partial state
    saw its rows first — today only [First].  Such a state merges
    correctly only when partitions are recombined in input order, so
    [Gmdj.eval] folds a block list containing one at a single domain,
    and [Mergeable] reports it as non-commutative. *)

val func_to_string : func -> string

val pp_spec : Format.formatter -> spec -> unit

(** {1 Accumulators}

    [compile frames spec] resolves the aggregated expression once;
    [make compiled] then creates a fresh mutable accumulator.  [step]
    feeds one tuple stack (innermost frame = the detail tuple);
    [value] reads off the current aggregate. *)

type compiled

type acc

val compile : Schema.t array -> spec -> compiled

val make : compiled -> acc

val step : acc -> Tuple.t array -> unit

val step_back : acc -> Tuple.t array -> unit
(** Retract one previously-fed tuple stack — the inverse of {!step},
    used for incremental view maintenance under deletions.  COUNT, SUM
    and AVG are self-inverting (their state nullifies correctly when the
    contribution count returns to zero); MIN, MAX and FIRST are not
    incrementally maintainable downward.
    @raise Invalid_argument for MIN/MAX/FIRST accumulators. *)

val merge : into:acc -> acc -> unit
(** Fold the second accumulator into the first, with [into] taken as
    the earlier partition.  Both must stem from the same [compiled]
    aggregate.  Every standard SQL aggregate state here merges
    commutatively (AVG carries sum and count separately), which is what
    makes partitioned/distributed GMDJ evaluation possible; an
    {!order_sensitive} state (FIRST) merges associatively but {e not}
    commutatively, so the result is right only when [into] really saw
    the earlier rows.
    @raise Invalid_argument on accumulators of different kinds. *)

val value : acc -> Value.t
