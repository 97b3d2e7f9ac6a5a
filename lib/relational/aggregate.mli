(** SQL aggregate functions with standard NULL semantics.

    [Count_star] counts rows; [Count e] counts rows where [e] is not
    NULL; [Sum]/[Min]/[Max]/[Avg] ignore NULLs and yield NULL on an
    empty (or all-NULL) input — the behaviour the paper's ALL-vs-max
    footnote hinges on.  [First e] yields the first non-NULL value of
    [e] in detail arrival order (NULL on an empty or all-NULL input):
    its state merge is associative and has an identity but is {e not}
    commutative ({!order_sensitive}). *)

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

(** Each kind has one table entry (label, per-slot state and the two
    flags below) that stepping, merging, retraction, writing and the
    chunk loop all read. *)

val order_sensitive : func -> bool
(** [true] iff the state merge depends on which partial state
    saw its rows first — today only [First].  Such a state merges
    correctly only when partitions are recombined in input order, so
    [Gmdj.eval] folds a block list containing one at a single domain,
    and [Mergeable] reports it as non-commutative. *)

val retractable : func -> bool
(** [true] iff {!fold_pairs} can retract a step of this aggregate: COUNT,
    COUNT( * ), SUM and AVG.  MIN, MAX and FIRST keep no state to fall
    back on once their current value is taken out. *)

val func_to_string : func -> string

val pp_spec : Format.formatter -> spec -> unit

(** {1 Aggregate state}

    One store holds the state of a list of aggregates for many {e slots}:
    GMDJ gives every base tuple (or θ-key group) a slot, GROUP BY one
    per key, and a correlated aggregate subquery uses a single slot.
    Slots are addressed by index; only this module knows the layout.

    Layout: one column per aggregate, each an [int array] of counts
    over slots — rows seen for COUNT( * ), non-NULL values seen for
    every other kind — plus, for MIN, MAX and FIRST, a [Value.t array]
    of running values, for AVG an unboxed [float array] of running sums
    folded from [0.0], and for SUM an unboxed [int array] of sums that a
    slot leaves for a boxed [Value.t] at its first non-[Int] value, so
    additions keep their order and {!Value.add}'s exact results.
    Per-kind rules: the first non-NULL value seeds SUM; MIN and MAX
    replace only on a strict comparison; FIRST keeps the earliest
    value; an empty or all-NULL input gives NULL (COUNT gives 0). *)

type compiled
(** One aggregate with its argument resolved against the frames. *)

val compile : Schema.t array -> spec -> compiled

type states
(** The state of one aggregate list over a number of slots. *)

val states : compiled array -> slots:int -> states
(** [slots] slots, each at the identity (nothing folded in). *)

val width : states -> int
(** The number of aggregates: the columns {!write} fills. *)

val add_slot : states -> int
(** A new slot at the identity, after the existing ones; returns its
    index. *)

val step : states -> int -> Tuple.t array -> unit
(** [step t s ctx] folds one tuple stack (innermost frame = the detail
    tuple) into slot [s] of every aggregate: the row-at-a-time path of
    the oracles, apart from the kernel below. *)

(** {1 The per-chunk kernel}

    A chunk's (row, slot) matches collect in a reused buffer; then each
    aggregate steps over them in one loop chosen by its kind and
    argument, reading a bare column in place and adding [Int]s
    unboxed. *)

type pairs

val pairs : unit -> pairs

val add_pair : pairs -> int -> int -> bool
(** [add_pair p row slot] records that the chunk buffer's row [row]
    matches [slot]; [true] when [p] is now full and must be folded. *)

val fold_pairs : retract:bool -> states -> outer:Tuple.t array -> Tuple.t array -> pairs -> unit
(** [fold_pairs ~retract:false t ~outer buf p] folds the pairs of [p] in
    order, as {!step} would with [buf.(row)] innermost and, unless
    [outer] is empty, [outer.(slot)] as frame 0; then empties [p].
    [~retract:true] takes them back out (view maintenance under
    deletions); a slot whose count returns to zero reads NULL again.
    @raise Invalid_argument, possibly midway, when retracting an
    aggregate that is not {!retractable}. *)

val exact_retraction : states -> outer:Tuple.t array -> Tuple.t array -> pairs -> bool
(** Whether [fold_pairs ~retract:true] over the pairs of [p] would leave
    every slot as folding its remaining values afresh would; then
    empties [p], touching no state.  COUNT always retracts exactly.  A
    SUM slot does while it holds an unboxed [Int] sum (wrapping, as a
    recompute wraps) and the value taken out is an [Int].  An AVG slot
    does while its float sum cannot have rounded: it has taken only
    [Int]s of magnitude at most 2^31, into at most 2^22 live values.
    MIN, MAX and FIRST never do. *)

val merge : into:states -> states -> unit
(** Slot-wise fold of the second store into the first, with [into]
    taken as the earlier partition.  Every state but FIRST's merges
    commutatively (AVG carries sum and count separately), which is what
    makes partitioned GMDJ evaluation possible; an {!order_sensitive}
    state merges associatively but {e not} commutatively, so the result
    is right only when [into] really saw the earlier rows.
    @raise Invalid_argument unless both stores come from the same
    aggregates with the same number of slots. *)

val write : states -> int -> Tuple.t -> int -> unit
(** [write t s row off] stores slot [s]'s aggregate values into
    [row.(off) .. row.(off + width t - 1)]. *)
