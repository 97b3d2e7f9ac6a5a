(** A named collection of relations (the database instance). *)

type t

exception Unknown_table of string

val create : unit -> t

val add : t -> string -> Relation.t -> unit
(** Registers the relation under [name]; its attributes are requalified
    to [name] so that unaliased references resolve naturally.  Replaces
    any previous binding. *)

val find : t -> string -> Relation.t
(** @raise Unknown_table when absent. *)

val find_opt : t -> string -> Relation.t option

val of_list : (string * Relation.t) list -> t

val tables : t -> string list
(** Sorted table names. *)

val epoch : t -> string -> int
(** The per-table mutation epoch: [0] while [name] has never been
    registered in this catalog, and bumped by every {!add} of [name]
    (the initial registration included).  One ingest batch bumps the
    epoch exactly once.  A derived result is current while every table
    it read is at the epoch it was computed at: the result cache
    ([Subql_mqo.Result_cache]) serves an entry on exactly that
    condition, and maintenance planners compare epochs to tell which
    tables changed between two syncs. *)
