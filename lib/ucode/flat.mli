(** A packed, int-indexed, read-only view of one routine body, built in
    a single walk over the block list.  Serves the hot body queries —
    the identity-excluding digest, CFG cycles — over dense immutable
    arrays instead of re-walking the pointer-chasing IR, and shares
    freely across domains. *)

type t = {
  params : int array;
  attr_bits : int;
  block_id : int array;
  block_start : int array;
  block_len : int array;
  term_kind : int array;
  term_a : int array;
  term_b : int array;
  term_c : int array;
  opcode : int array;
  o1 : int array;
  o2 : int array;
  o3 : int array;
  o4 : int array;
  args : int array;
  consts : int64 array;
  names : string array;
  call_sites : int array;
  hash : string;
}

(** Opcode tags for the [opcode] column. *)
val op_const : int
val op_faddr : int
val op_gaddr : int
val op_unop : int
val op_binop : int
val op_move : int
val op_load : int
val op_store : int
val op_call_direct : int
val op_call_indirect : int

(** Terminator tags for the [term_kind] column. *)
val term_jump : int
val term_branch : int
val term_ret_none : int
val term_ret_some : int

(** The flat view of one routine version: built in one walk, then
    memoized on the version's physical identity (routine records are
    immutable; every transform builds a fresh one), so repeated
    queries against an unchanged body reuse the same arrays.  Entries
    are ephemeron-weak — they die with their routine. *)
val of_routine : Types.routine -> t

val n_blocks : t -> int

(** The identity-excluding digest (hex).  Excludes the routine's own
    name, module, origin, linkage and call-site ids; includes params,
    attributes, blocks, instructions (with callee/global names) and
    terminators — the {!Hash.routine_body_hash} contract. *)
val body_hash : t -> string

(** [of_routine] + [body_hash] in one call. *)
val routine_hash : Types.routine -> string

(** Labels of blocks on a CFG cycle (including self-loops); array
    Tarjan over the flat terminators. *)
val cycles : t -> Types.Int_set.t
