(** Per-routine and per-edge summaries feeding the heuristics:
    parameter-usage descriptors P(R), calling-context descriptors S(E),
    and the block/site frequency estimates shared by the cloner's and
    inliner's benefit calculations.  Each is a pure function of its
    arguments and derived from scratch; HLO's passes read S(E) and P(R)
    through the compile's fact table ([State.edge_contexts],
    [State.param_usage]), which derives them once per routine value.
    Routine sizes are not among them: the inliner walks every routine
    once per pass, into one table that all its size reads share. *)

(** Blocks of the routine that sit on a CFG cycle (the loop heuristic
    used when no profile is available). *)
val blocks_in_cycles : Ucode.Types.routine -> Ucode.Types.Int_set.t

(** Frequency weight assigned to in-loop blocks without profile data. *)
val loop_weight : float

(** Absolute frequency estimate of a call site: measured count with
    profile data, the loop heuristic without. *)
val site_frequency :
  config:Config.t ->
  profile:Ucode.Profile.t ->
  Ucode.Types.routine ->
  site:Ucode.Types.site ->
  label:Ucode.Types.label ->
  float

(** What the caller knows about an actual argument. *)
type context_value = Cconst of int64 | Cfun of string | Cunknown

(** S(E) for every call site of the routine. *)
val edge_contexts :
  Ucode.Types.routine -> context_value list Ucode.Types.Int_map.t

(** P(R): per-formal interest weights; [pu_indirect] flags formals that
    reach the function position of an indirect call (the
    devirtualization enabler, weighted highest). *)
type param_usage = {
  pu_weights : float array;
  pu_indirect : bool array;
}

val param_usage :
  config:Config.t ->
  profile:Ucode.Profile.t ->
  Ucode.Types.routine ->
  param_usage
