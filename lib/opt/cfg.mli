(** Control-flow-graph helpers shared by the passes. *)

(** Successor labels of each block. *)
val successors :
  Ucode.Types.routine -> Ucode.Types.label list Ucode.Types.Int_map.t

(** Predecessor labels of each block (blocks without predecessors map
    to []). *)
val predecessors :
  Ucode.Types.routine -> Ucode.Types.label list Ucode.Types.Int_map.t

(** Labels reachable from the entry block. *)
val reachable : Ucode.Types.routine -> Ucode.Types.Int_set.t

(** Blocks in reverse postorder from the entry. *)
val reverse_postorder : Ucode.Types.routine -> Ucode.Types.label list

(** A routine's blocks by position in its block list, for the dense
    dataflow passes. *)
type positions = {
  blocks : Ucode.Types.block array;
  index : (Ucode.Types.label, int) Hashtbl.t;
      (** label -> position of the first block with it *)
  succs : int list array;
      (** successor positions; a target that is no block is left out *)
}

val positions : Ucode.Types.routine -> positions

(** Replace a routine's blocks, keeping the entry first.  Raises if the
    entry block is missing or duplicated. *)
val with_blocks :
  Ucode.Types.routine -> Ucode.Types.block list -> Ucode.Types.routine
