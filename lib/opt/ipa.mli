(** Minimal interprocedural analysis: which routines' calls may be
    deleted when their result is unused.

    Deletable = side-effect free (no stores, no builtin or indirect
    calls, only deletable direct callees) *and* guaranteed to terminate
    (acyclic CFG, no recursion).  This is what lets HLO erase the
    stubbed curses calls of 072.sc before inlining starts (§3.1). *)

(** Does the routine's CFG contain a cycle? *)
val has_loop : Ucode.Types.routine -> bool

(** [deletable_routines index p]: names of the routines of [p] whose
    calls can be erased when unused.  [index] must be built from [p].
    No call graph is built: one memoized DFS over the direct calls. *)
val deletable_routines :
  Ucode.Index.t -> Ucode.Types.program -> Ucode.Types.String_set.t
