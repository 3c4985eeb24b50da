(** The scalar optimization pipeline — the stand-in for the paper's
    "aggressive, state-of-the-art global optimizer".

    One round is: CFG simplify, constant propagation (with
    devirtualization), copy propagation, loop-invariant code motion,
    strength reduction, local CSE, DCE, simplify again; rounds repeat
    to quiescence (bounded).  A simplify whose input is the unchanged
    output of a simplify that reported no change is skipped: it would
    report no change either. *)

(** Rounds run, counted across the {!optimize_routine} calls given
    it. *)
type stats = { mutable rounds : int }

val make_stats : unit -> stats

(** Optimize one routine.  [removable name] permits deleting unused
    calls to [name] (see {!Ipa}); [arity_of] enables devirtualization
    of indirect calls whose target and arity are provably known;
    [stats] counts the rounds. *)
val optimize_routine :
  ?removable:(string -> bool) ->
  ?arity_of:(string -> int option) ->
  ?max_rounds:int ->
  ?stats:stats ->
  Ucode.Types.routine ->
  Ucode.Types.routine

(** A per-compile memo of converged runs.  When {!optimize_routine}
    converges inside {!optimize_program} or {!optimize_selected} (its
    last round was a structural no-op, not cut off by the round cap),
    the memo records the output and every [removable]/[arity_of]
    question the run asked, with its answer.  A later call handed that
    very routine (physically) whose questions all still get the same
    answers returns it as it is: a converged output is a fixpoint of
    one round, so the result is the one a fresh run computes.  Lookups
    and records happen on the calling domain, around the parallel map;
    after each call the memo keeps only the routines of the returned
    program.  Create one per compile; it is not safe to share between
    concurrent calls. *)
type memo

val create_memo : unit -> memo

(** Optimize every routine; computes the {!Ipa} deletable set and the
    arity environment from the program itself.  A routine [memo]
    vouches for is passed through unchanged; the default is a fresh
    memo, which no later call sees.  Counts
    [opt.routines_optimized] (routines run through the pipeline) and
    [opt.routines_reused] (memo hits). *)
val optimize_program :
  ?memo:memo -> ?max_rounds:int -> Ucode.Types.program -> Ucode.Types.program

(** Optimize only the named routines (used by HLO between passes), as
    {!optimize_program} does; a name listed twice is optimized once. *)
val optimize_selected :
  ?memo:memo ->
  ?max_rounds:int ->
  Ucode.Types.program ->
  string list ->
  Ucode.Types.program
