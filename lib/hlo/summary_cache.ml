(** Content-hashed memo table for the loop heuristic's cycle sets.

    The set of blocks on CFG cycles depends only on the routine's
    *body*, so it is keyed by [Ucode.Hash.routine_body_hash] and reused
    across passes and across clones (a clone's body hashes like its
    original until specialization rewrites it).  Only profile-less
    compiles ask for it.  The table lives in one process only;
    cross-module summaries travel in isom object files ([lib/isom]).
    Routine sizes are not memoized here: [Ucode.Size.routine_size]
    walks the block list for less than the flat build and digest a
    lookup costs.

    Determinism is by construction: a cached value is byte-identical to
    what recomputation would produce, because the key covers everything
    the computation reads.  The table is domain-safe (one mutex) so
    parallel pipeline shards may consult it, and process-global so the
    heuristics can reach it without threading a handle through every
    signature. *)

module U = Ucode.Types

type stats = {
  hits : int;
  misses : int;
  entries : int;    (** resident entries *)
}

let lock = Mutex.create ()
let table : (Ucode.Hash.t, U.Int_set.t) Hashtbl.t = Hashtbl.create 256
let hits = ref 0
let misses = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* One flat build serves both the digest (the key) and the cycle
   analysis. *)
let cycles (r : U.routine) : U.Int_set.t =
  let fl = Ucode.Flat.of_routine r in
  let key = Ucode.Flat.body_hash fl in
  match locked (fun () ->
      match Hashtbl.find_opt table key with
      | Some c -> incr hits; Some c
      | None -> incr misses; None)
  with
  | Some c -> c
  | None ->
    (* Compute outside the lock: Tarjan on a big routine must not
       serialize other domains' lookups.  A racing domain may compute
       the same set; both results are identical, either insert wins. *)
    let c = Ucode.Flat.cycles fl in
    locked (fun () -> Hashtbl.replace table key c);
    c

let stats () =
  locked (fun () ->
      { hits = !hits; misses = !misses; entries = Hashtbl.length table })

let clear () =
  locked (fun () -> Hashtbl.reset table; hits := 0; misses := 0)
