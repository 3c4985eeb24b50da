(** Content-hashed memo table for per-routine analyses.

    Facts that depend only on a routine's body — static size, the set
    of blocks on CFG cycles — are keyed by
    [Ucode.Hash.routine_body_hash] and reused across passes and across
    clones within one process; nothing is persisted.  Cached values are
    identical to what recomputation would produce, so caching never
    perturbs optimizer decisions.  All operations are domain-safe. *)

type entry = {
  e_size : int;                          (** [Ucode.Size.routine_size] *)
  e_cycles : Ucode.Types.Int_set.t;      (** blocks on a CFG cycle *)
}

(** Look up (computing and inserting on miss) the entry for [r]. *)
val find : Ucode.Types.routine -> entry

val size : Ucode.Types.routine -> int
val cycles : Ucode.Types.routine -> Ucode.Types.Int_set.t

type stats = {
  hits : int;
  misses : int;
  entries : int;   (** resident entries *)
}

val stats : unit -> stats

(** Drop all entries and zero the statistics. *)
val clear : unit -> unit
