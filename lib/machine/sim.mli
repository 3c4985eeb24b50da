(** The machine simulator — the stand-in for the PA8000 simulator
    behind the paper's Figure 7.  Executes a laid-out image while
    driving an I-cache (per fetch), a D-cache (per load/store) and a
    branch predictor (returns and indirect calls always mispredict);
    cycles are 1 per retired instruction plus miss, mispredict and
    multiplier/divider latencies.

    A fetch that stays on the I-cache line of the previous fetch does
    not call the cache: it is a repeat hit, and the run credits all of
    them to the cache at its end ({!Cache.add_repeats}).  Every
    counter of {!Metrics.t} is what one {!Cache.access} per fetch
    would give. *)

type penalties = {
  icache_miss : int;
  dcache_miss : int;
  branch_mispredict : int;
  mul_extra : int;
  div_extra : int;
}

val default_penalties : penalties

type config = {
  memory_cells : int;
  max_instructions : int;
  icache : Cache.config;
  dcache : Cache.config;
  predictor_entries : int;
  penalties : penalties;
}

val default_config : config

type trap =
  | Division_by_zero
  | Memory_fault of int64
  | Stack_overflow
  | Bad_jump of int
  | Aborted
  | Out_of_instructions
  | Out_of_memory

(** Carries the trap and the faulting pc. *)
exception Trap of trap * int

val trap_message : trap -> string

type result = {
  exit_code : int64;
  output : string;
  metrics : Metrics.t;
}

(** Decode the image once, then execute it from [main_entry] until it
    halts.  Raises [Trap] on a run-time fault, and [Invalid_argument]
    up front, before any instruction runs, if the layout left a
    symbolic branch or [Mla] target in the image or an instruction
    names a register outside [r0]–[r31]. *)
val run : ?config:config -> Layout.image -> result

(** Lower + lay out + simulate in one step. *)
val run_program : ?config:config -> Ucode.Types.program -> result
