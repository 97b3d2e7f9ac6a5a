(** Structured analysis diagnostics.

    Every static check in the repository — expression typing, plan
    schema inference, the nullability dataflow, rewrite verification and
    the lint rules — reports through this one type instead of ad-hoc
    exceptions, so diagnostics can carry a severity, a stable rule code
    (greppable, testable), and the plan path of the offending node.

    Rule-code namespaces:
    - [SCH0xx] — schema errors (unknown/ambiguous/duplicate columns,
      unknown tables);
    - [TYP0xx] — type errors (non-boolean predicates, operand clashes,
      aggregate arguments);
    - [NUL0xx] — NULL-soundness (the NOT IN trap, counting conditions
      over possibly-NULL columns);
    - [VER0xx] — rewrite-verifier violations (schema drift, widened
      nullability);
    - [LNT0xx] — lint findings (cartesian products, uncoalesced GMDJs,
      dead columns, non-neighboring correlation);
    - [TRF0xx] — translation failures surfaced as diagnostics;
    - [ADM0xx] — serving-layer admission control (plan over the memory
      budget, queue-cap shed, submit after shutdown); see
      [Subql_server.Admission];
    - [STO0xx] — storage-codec corruption (unknown value tag, truncated
      payload, tag/column clash under a specialized decode plan); see
      [Subql_storage.Codec];
    - [TYD0xx] — typed-layer errors (unknown column, type or
      nullability mismatch in derived accessors, column used outside
      its DSL scope); see [Subql_typed]. *)

type severity = Error | Warning | Info

type t = {
  severity : severity;
  code : string;  (** stable rule code, e.g. ["SCH001"] *)
  path : string list;  (** plan path from the root, e.g. [["Select"; "Md.base"]] *)
  message : string;
  subject : string option;  (** the offending column/table/operator, when one exists *)
}

exception Fail of t
(** The structured replacement for [Failure]: raised by entry points
    that cannot return a diagnostic list. *)

val make : ?path:string list -> ?subject:string -> severity -> code:string -> string -> t

val makef :
  ?path:string list ->
  ?subject:string ->
  severity ->
  code:string ->
  ('a, Format.formatter, unit, t) format4 ->
  'a

val error : ?path:string list -> ?subject:string -> code:string -> string -> t

val warning : ?path:string list -> ?subject:string -> code:string -> string -> t

val info : ?path:string list -> ?subject:string -> code:string -> string -> t

val severity_to_string : severity -> string

val compare : t -> t -> int
(** Total order: errors before warnings before infos, then by path,
    code, message, subject — the deterministic emission order.  Every
    field participates, so [List.sort_uniq compare] is stable against
    input permutation: two structurally different diagnostics can never
    compare equal and have one silently dropped depending on which
    arrived first. *)

val sort : t list -> t list
(** Sort by {!compare} and drop exact duplicates. *)

val is_error : t -> bool

val has_errors : t list -> bool

val count : severity -> t list -> int

val path_to_string : string list -> string
(** ["Select/Md.base/Rename"], or ["<root>"] for the empty path. *)

val pp : Format.formatter -> t -> unit
(** One line: [severity[code] path: message]. *)

val to_string : t -> string
