(** Minimal interprocedural analysis: which routines' calls may be
    deleted when their result is unused.

    Deletable = side-effect free (no stores, no builtin or indirect
    calls, only deletable direct callees) *and* guaranteed to terminate
    (acyclic CFG, no recursion).  This is what lets HLO erase the
    stubbed curses calls of 072.sc before inlining starts (§3.1). *)

(** Does the routine's CFG contain a cycle? *)
val has_loop : Ucode.Types.routine -> bool

(** Names of routines whose calls can be erased when unused, in the
    program the call graph was built from. *)
val deletable_routines : Ucode.Callgraph.t -> Ucode.Types.String_set.t
