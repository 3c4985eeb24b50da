(** Backward liveness analysis over virtual registers; used by
    dead-code elimination, loop-invariant code motion, register
    allocation and the outliner.

    Registers are dense below [r_next_reg], so every live set is a flat
    bitset of one [int] word per 63 registers, one per block.  One
    solver ({!solve}) serves both {!compute} and dead-code elimination,
    which edits the sets it solved and solves them again ({!sets}). *)

type t

(** Converged per-block liveness for a routine.  Raises
    [Invalid_argument] naming the routine and the register if an
    instruction, terminator or parameter names a register outside
    [\[0, r_next_reg)]: the parameters first, then block by block the
    terminator's uses and the instructions last to first, each
    instruction's definition before its uses. *)
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

(** Registers live immediately after each call (excluding the call's
    destination): what a caller must preserve across it.  Site id ->
    live set. *)
val live_across_calls :
  Ucode.Types.routine -> Ucode.Types.Int_set.t Ucode.Types.Int_map.t

(** {2 The dense sets}

    The state behind {!compute}, for a pass that rewrites blocks and
    solves again.  Block [p]'s set is the [words] ints at [p * words]
    of each flat array; register [x] is a bit of word [x / 63]. *)

type sets = {
  words : int;
  succs : int list array;  (** successor positions, as {!Cfg.positions} *)
  gen : int array;  (** used before any definition in the block *)
  kill : int array;  (** defined in the block *)
  live_in : int array;
  live_out : int array;
}

(** Empty sets for [r] (which fixes [words]) over the blocks of
    [succs]. *)
val create : Ucode.Types.routine -> int list array -> sets

(** [scan ?check s p term iter_back] recomputes block [p]'s gen and
    kill from its terminator [term] and the instructions [iter_back]
    feeds its argument, last to first.  [check] sees every register in
    that order: the terminator's uses, then per instruction its
    definition before its uses. *)
val scan :
  ?check:(Ucode.Types.reg -> unit) ->
  sets ->
  int ->
  Ucode.Types.terminator ->
  ((Ucode.Types.instr -> unit) -> unit) ->
  unit

(** The least solution of [live_in] and [live_out] for the current gen
    and kill sets, from empty sets. *)
val solve : sets -> unit

(** Bit operations on the set at [base] of a flat array. *)

val mem : int array -> int -> Ucode.Types.reg -> bool
val add : int array -> int -> Ucode.Types.reg -> unit
val remove : int array -> int -> Ucode.Types.reg -> unit
