(** Definitional interpreter for ucode.

    Defines the semantics every transformation is differentially tested
    against, and doubles as the paper's *instrumented training run*:
    {!train} fills a {!Ucode.Profile} database with block execution
    counts, call-site counts and indirect-call target histograms.

    Each run decodes the program once and then executes the decoded
    form; a name that does not resolve traps only when the instruction
    using it runs, and a jump to a missing label raises [Not_found]
    only when taken.  Registers live in a frame of [r_next_reg] cells
    per call; decoding checks register fields against it, and an
    instruction naming a register outside it raises
    [Invalid_argument] only when it runs, at the access, after any
    trap the instruction takes first.  Memory is [memory_cells]
    64-bit cells, zero at the start of every run; cell 0 is reserved
    (null), globals are laid out from cell 1, [alloc] bumps past
    them.
    Function values are opaque positive handles.  Direct calls follow
    the dusty-deck pad/drop convention for mismatched arity; indirect
    calls must match the target's arity exactly or trap. *)

type trap =
  | Division_by_zero
  | Out_of_bounds of int64
  | Bad_function_handle of int64
  | Call_to_external of string
  | Aborted
  | Out_of_fuel
  | Out_of_memory
  | Call_depth_exceeded
  | Indirect_arity_mismatch of string

(** Carries the trap and the routine executing when it fired. *)
exception Trap of trap * string

val trap_message : trap -> string

type result = {
  exit_code : int64;   (** [main]'s return value *)
  output : string;     (** everything printed via the builtins *)
  steps : int;         (** IR instructions executed *)
  profile : Ucode.Profile.t;  (** empty unless profiling was on *)
  globals : (string * int64 array) list;
      (** final value of every global, in program order — part of the
          observable state the semantic oracle compares *)
}

type config = {
  memory_cells : int;
  fuel : int;            (** max IR instructions *)
  max_call_depth : int;
  profile : bool;
}

val default_config : config

(** Run a program from its [main] routine (no arguments). *)
val run : ?config:config -> Ucode.Types.program -> result

(** The instrumented training run: {!run} with profiling enabled. *)
val train : ?config:config -> Ucode.Types.program -> result

type outcome =
  | Finished of result
  | Trapped of { trap : trap; routine : string; partial : result }
      (** [partial] holds the observable state at trap time: output
          printed so far, globals, steps.  Its [exit_code] is 0. *)

(** {!run}, but with traps reified as values instead of exceptions, so
    differential comparisons can also check the observable effects a
    trapping program performed before the trap. *)
val run_outcome : ?config:config -> Ucode.Types.program -> outcome
