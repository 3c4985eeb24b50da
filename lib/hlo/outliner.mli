(** Aggressive outlining — the paper's §5 future work: cold
    single-entry single-continuation regions are extracted into
    module-local routines of their own, shrinking hot routines (and the
    quadratic budget base) and keeping the optimizer focused on code
    that runs.  Requires profile data; enabled with
    [Config.outline]. *)

type config = {
  cold_fraction : float;
      (** a block is cold when it runs less than this fraction of the
          routine's entry count *)
  min_instructions : int;  (** smaller regions are not worth a call *)
  max_inputs : int;        (** live-in registers become parameters *)
}

val default_config : config

type region = {
  rg_blocks : Ucode.Types.Int_set.t;
  rg_entry : Ucode.Types.label;
  rg_exit : Ucode.Types.label;
  rg_inputs : Ucode.Types.reg list;
  rg_output : Ucode.Types.reg option;
  rg_size : int;
}

(** Outlinable regions of a routine, largest first, non-overlapping.
    [basis] (default [`Entry]) picks what the [cold_fraction] cut is
    relative to: the routine's entry count, or its hottest block
    ([`Hottest] — used by region inlining, where the point is
    splitting a routine with one dominant path). *)
val find_regions :
  ?config:config ->
  ?basis:[ `Entry | `Hottest ] ->
  profile:Ucode.Profile.t ->
  Ucode.Types.routine ->
  region list

(** Extract every profitable region program-wide; returns how many. *)
val run_pass : ?config:config -> State.t -> int

(** Outline one routine's cold regions, coldness measured against its
    hottest block — how the region inliner splits an over-budget
    callee.  Returns the routines extracted, in the order they were
    appended to the program.  Called while a stage's edit buffer is
    open, it edits through that buffer. *)
val outline_routine :
  ?config:config -> State.t -> string -> Ucode.Types.routine list
