(** The register-range invariant the dense dataflow passes rely on:
    every register a routine names is in [\[0, r_next_reg)] (checked by
    {!Ucode.Validate}), so per-register state is an array or bitset of
    [r_next_reg] entries. *)

(** [check r x] raises [Invalid_argument] naming routine [r] and
    register [x] unless [0 <= x < r.r_next_reg]. *)
val check : Ucode.Types.routine -> Ucode.Types.reg -> unit

(** [check_routine r] applies {!check} to every parameter and every
    register an instruction or terminator of [r] names: the parameters
    first, then block by block each instruction's uses before its
    definition, then the terminator's uses. *)
val check_routine : Ucode.Types.routine -> unit
