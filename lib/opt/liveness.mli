(** Backward liveness analysis over virtual registers; used by
    dead-code elimination, loop-invariant code motion, register
    allocation and the outliner.

    Registers are dense below [r_next_reg], so every live set is a flat
    bitset of one [int] word per 63 registers, one per block. *)

type t

(** Converged per-block liveness for a routine.  Raises
    [Invalid_argument] naming the routine and the register if an
    instruction, terminator or parameter names a register outside
    [\[0, r_next_reg)]. *)
val compute : Ucode.Types.routine -> t

(** [live_in t l r]: is register [r] live at the entry of block [l]?
    False for a label that is not a block of the routine; raises
    [Invalid_argument] for a register outside [\[0, r_next_reg)]. *)
val live_in : t -> Ucode.Types.label -> Ucode.Types.reg -> bool

(** [iter_live_in f t l] applies [f] to every register live at the
    entry of block [l], in increasing order. *)
val iter_live_in : (Ucode.Types.reg -> unit) -> t -> Ucode.Types.label -> unit

(** [iter_live_out f t l]: the same at the exit of block [l]. *)
val iter_live_out : (Ucode.Types.reg -> unit) -> t -> Ucode.Types.label -> unit

(** [dead_after t i], for the block at position [i] of the routine's
    block list: element [k] is true when instruction [k] defines a
    register that is not live right after it.  False for an instruction
    without a destination. *)
val dead_after : t -> int -> bool array

(** Registers live immediately after each call (excluding the call's
    destination): what a caller must preserve across it.  Site id ->
    live set. *)
val live_across_calls :
  Ucode.Types.routine -> Ucode.Types.Int_set.t Ucode.Types.Int_map.t
