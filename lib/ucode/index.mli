(** A read-only routine-name index of one program.

    Whole-program analyses look routines up by name inside loops over
    every edge, site or routine; {!Types.find_routine} is a list scan,
    so those loops cost O(routines) per lookup.  Build one index per
    analysis with {!of_program} and read it instead: a lookup hashes
    the name once.  It answers exactly as {!Types.find_routine} and
    {!Types.arity_in_program} do on the program it was built from: the
    first routine of a name wins, and {!arity} falls back to
    {!Types.builtin_arity}.

    Each distinct routine name has a dense {e id} in [0, size): the
    names numbered in the order they first appear in [p_routines].  A
    pass keeps per-routine state in arrays of {!size} slots indexed by
    id, so it never hashes a name twice.

    An index is never mutated after {!of_program} returns, so tasks of
    a domain pool may share it.  It does not follow later edits to the
    program: a stage that edits the program between lookups (HLO's
    cloner, inliner and outliner) reads and edits routines through the
    HLO edit buffer, [Hlo.State.with_edits], instead. *)

type t

(** One pass over [p_routines], no sort. *)
val of_program : Types.program -> t

(** The number of distinct routine names. *)
val size : t -> int

(** The id of a routine name, [None] when no routine has it. *)
val id : t -> string -> int option

(** The first routine of the name with this id.
    @raise Invalid_argument when the id is outside [0, size). *)
val routine : t -> int -> Types.routine

val find : t -> string -> Types.routine option

(** @raise Invalid_argument when no routine has the name. *)
val find_exn : t -> string -> Types.routine

val mem : t -> string -> bool

(** A routine's parameter count, else a builtin's arity. *)
val arity : t -> string -> int option
