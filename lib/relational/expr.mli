(** Scalar and boolean expressions over qualified attributes.

    Expressions are evaluated under a stack of {e frames} — one tuple per
    enclosing query scope, outermost first — so the same machinery serves
    single-relation predicates, join conditions, GMDJ θ-conditions and
    the correlated predicates of nested queries.  Attribute references
    resolve in the innermost frame that knows them (SQL scoping rules).

    Boolean results follow Kleene 3VL: they are [Bool _] or [Null]
    (unknown).  Comparisons with a NULL operand are unknown. *)

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type arith = Add | Sub | Mul | Div | Mod

type t =
  | Const of Value.t
  | Attr of string option * string  (** qualifier (alias) and column name *)
  | Cmp of cmp * t * t
  | Null_safe_eq of t * t
      (** SQL [IS NOT DISTINCT FROM]: never unknown, NULL equals NULL.
          Used for push-down key matching (Thms 3.3/3.4). *)
  | And of t * t
  | Or of t * t
  | Not of t
  | Arith of arith * t * t
  | Neg of t
  | Is_null of t
  | Is_not_null of t
  | Is_true of t
      (** 3VL → 2VL collapse: [Is_true e] is [true] iff [e] is true.
          Needed to express ALL-quantifier kill conditions. *)

(** {1 Constructors} *)

val const : Value.t -> t
val int : int -> t
val float : float -> t
val str : string -> t
val bool : bool -> t
val null : t
val attr : ?rel:string -> string -> t
val eq : t -> t -> t
val ne : t -> t -> t
val lt : t -> t -> t
val le : t -> t -> t
val gt : t -> t -> t
val ge : t -> t -> t
val cmp : cmp -> t -> t -> t
val and_ : t -> t -> t
val or_ : t -> t -> t
val not_ : t -> t
val conjoin : t list -> t
(** [conjoin []] is [Const (Bool true)]. *)

(** {1 Operator utilities} *)

val negate_cmp : cmp -> cmp
(** [negate_cmp Eq = Ne], [negate_cmp Lt = Ge], ... ([φ] to [φ̄]). *)

val swap_cmp : cmp -> cmp
(** Mirror for operand swap: [x φ y ≡ y (swap_cmp φ) x]. *)

val cmp_to_string : cmp -> string

val conjuncts : t -> t list
(** Flatten top-level [And]s. *)

(** {1 Analysis} *)

val attrs : t -> (string option * string) list
(** All attribute references, in occurrence order (with duplicates). *)

val qualifiers : t -> string list
(** Distinct qualifiers of qualified references. *)

val references_rel : string -> t -> bool

val equal : t -> t -> bool

val map_attrs : (string option * string -> t) -> t -> t
(** Substitute every attribute reference. *)

val rewrite_qualifier : from_rel:string -> to_rel:string -> t -> t

val infer : Schema.t array -> t -> Value.ty option
(** Static type under the given frames; [None] means "NULL literal"
    (polymorphic).  @raise Value.Type_error on a type clash.
    @raise Schema.Unknown_attribute on an unresolvable reference. *)

val infer_diag :
  ?path:string list -> Schema.t array -> t -> (Value.ty option, Diag.t) result
(** Exception-free {!infer}: typing failures come back as a structured
    diagnostic ([SCH001] unknown attribute, [SCH002] ambiguous
    attribute, [TYP001] non-boolean operand, [TYP002] operand type
    clash) carrying [path] as its plan location. *)

val typecheck_bool : Schema.t array -> t -> unit
(** Assert the expression is boolean-typed (or NULL). *)

val typecheck_bool_diag : ?path:string list -> Schema.t array -> t -> Diag.t list
(** Exception-free {!typecheck_bool}: [[]] when the expression is a
    well-typed predicate, a singleton diagnostic otherwise. *)

val raise_diag : Diag.t -> 'a
(** Raise the legacy exception a diagnostic stands for
    ({!Schema.Unknown_attribute} / {!Schema.Ambiguous_attribute} /
    {!Value.Type_error} / [Invalid_argument]), or {!Diag.Fail} for codes
    with no legacy equivalent — the bridge the historical entry points
    use now that the structured path is primary. *)

val resolve : Schema.t array -> string option * string -> (int * int) option
(** [(frame, position)] of the column a reference names: the innermost
    frame (highest index) that has it wins — the rule every compiled
    expression follows.
    @raise Schema.Ambiguous_attribute if that frame has it twice. *)

val refs_resolvable : Schema.t array -> t -> bool
(** Do all attribute references resolve in the given frames? *)

(** {1 Compilation and evaluation} *)

val compile_frames : Schema.t array -> t -> Tuple.t array -> Value.t
(** [compile_frames frames e] resolves all references once and returns a
    fast closure evaluating [e] on tuple stacks shaped like [frames]
    (frame 0 outermost). *)

val compile : Schema.t -> t -> Tuple.t -> Value.t
(** Single-frame convenience.  The returned closure reuses an internal
    buffer and is not thread-safe. *)

val compile2 : left:Schema.t -> right:Schema.t -> t -> Tuple.t -> Tuple.t -> Value.t
(** Two-frame convenience ([left] outer / [right] inner), same caveat. *)

val is_true : Value.t -> bool
(** Truncation: [Bool true] is true; [Bool false] and [Null] are not. *)

val apply_cmp : cmp -> Value.t -> Value.t -> Value.t
(** The 3VL comparison on values: [Null] when either side is NULL.
    @raise Value.Type_error on incomparable types. *)

val to_bool3 : Value.t -> Bool3.t
(** @raise Value.Type_error if the value is not boolean or NULL. *)

(** {1 Join analysis} *)

type equi_key = { left_col : int; right_col : int; null_safe : bool }
(** One hashable key pair of a join condition: a left and a right
    column position, and whether NULL matches NULL on it. *)

val split_equi :
  left:Schema.t -> right:Schema.t -> t -> equi_key list * t option
(** Extract the hashable equalities of the top-level conjunction.  A
    conjunct [Cmp (Eq, a, b)] or [Null_safe_eq (a, b)] between two bare
    attributes, where [a] resolves only on the left and [b] only on the
    right (or vice versa), becomes a key.  An [Eq] key is not null-safe:
    a NULL on either side never matches.  A [Null_safe_eq] key is: NULL
    matches NULL, which is {!Value.equal}, exactly how [<=>] evaluates.
    Everything else is returned as the residual condition ([None] when
    nothing remains). *)

val key_columns : equi_key list -> int array * int array * bool array
(** The keys' left columns, right columns and null-safety flags, in
    order. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
