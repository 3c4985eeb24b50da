(** The measure step every experiment shares — the paper's method
    (§3): train a profile, run HLO on the measured input, simulate.

    A measurement counts only if the optimized program behaves like the
    original under the interpreter ({!Sem.compare_outcomes}) and the
    simulator then prints and exits as the interpreter did.  Anything
    else raises {!Rejected}: no caller gets the cycles of a miscompiled
    program. *)

(** One program, prepared once for any number of evaluations. *)
type subject = private {
  name : string;  (** used in {!Rejected} *)
  program : Ucode.Types.program;  (** the measured, unoptimized program *)
  profile : Ucode.Profile.t;  (** from the instrumented training run *)
  train_seconds : float;  (** CPU time of the training run *)
  reference : Sem.outcome;  (** [program]'s observation; [Finished] *)
}

(** [cls] is the oracle's mismatch class (see {!Sem.compare_outcomes}),
    ["reference"] when {!prepare} refuses, or ["sim_trap"],
    ["sim_output"] or ["sim_exit"] when the simulator disagrees. *)
exception Rejected of { subject : string; cls : string; detail : string }

(** [prepare ~train program] observes [program] and trains on [train]
    (the program built for the training input, or [program] itself).
    Refuses, with class ["reference"], a [program] that does not run to
    completion. *)
val prepare :
  name:string -> train:Ucode.Types.program -> Ucode.Types.program -> subject

type result = {
  optimized : Ucode.Types.program;
  report : Hlo.Report.t;
  observed : Sem.observation;  (** the interpreter's run of [optimized] *)
  image : Machine.Layout.image;
  metrics : Machine.Metrics.t;
  hlo_seconds : float;  (** CPU time of the HLO run *)
}

(** Run HLO under [config] — on the subject's profile after [mutation]
    when [config.use_profile] holds, else on the empty profile — then
    guard, lay out and simulate the result under [sim_config].
    Exceptions of the HLO driver propagate. *)
val evaluate :
  ?sim_config:Machine.Sim.config ->
  ?mutation:Sem.profile_mutation ->
  config:Hlo.Config.t ->
  subject ->
  result

(** [check subject r program] simulates [program] under the guard of
    [r]: it must print and exit as the interpreter's run of
    [r.optimized] did.  [program] is [r.optimized] (on another cache
    geometry) or a copy that only orders its routines differently; the
    interpreter numbers function handles by routine position, so such
    a copy is not compared under the interpreter again. *)
val check :
  ?sim_config:Machine.Sim.config ->
  subject ->
  result ->
  Ucode.Types.program ->
  Machine.Metrics.t
