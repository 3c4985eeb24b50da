(** Content-hashed memo table for the loop heuristic's cycle sets.

    The set of blocks on CFG cycles, which profile-less compiles weigh
    call sites and blocks by, is keyed by [Ucode.Hash.routine_body_hash]
    and reused across passes and across clones within one process;
    nothing is persisted.  Cached values are identical to what
    recomputation would produce, so caching never perturbs optimizer
    decisions.  All operations are domain-safe.  Routine sizes are not
    cached: a size walk costs less than the digest that keys this
    table. *)

(** Labels of the blocks of [r] on a CFG cycle (looked up, computed and
    inserted on a miss). *)
val cycles : Ucode.Types.routine -> Ucode.Types.Int_set.t

type stats = {
  hits : int;
  misses : int;
  entries : int;   (** resident entries *)
}

val stats : unit -> stats

(** Drop all entries and zero the statistics. *)
val clear : unit -> unit
