(** A read-only routine-name index of one program.

    Whole-program analyses look routines up by name inside loops over
    every edge, site or routine; {!Types.find_routine} is a list scan,
    so those loops cost O(routines) per lookup.  Build one index per
    analysis with {!of_program} and read it instead.  It answers exactly
    as {!Types.find_routine} and {!Types.arity_in_program} do on the
    program it was built from: the first routine of a name wins, and
    {!arity} falls back to {!Types.builtin_arity}.

    An index is never mutated after {!of_program} returns, so tasks of
    a domain pool may share it.  It does not follow later edits to the
    program: for one-off lookups on a program that changes between
    calls, use {!Types.find_routine}. *)

type t

val of_program : Types.program -> t

val find : t -> string -> Types.routine option

(** @raise Invalid_argument when no routine has the name. *)
val find_exn : t -> string -> Types.routine

val mem : t -> string -> bool

(** A routine's parameter count, else a builtin's arity. *)
val arity : t -> string -> int option
