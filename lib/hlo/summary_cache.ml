(** Content-hashed memo table for per-routine analyses.

    Per-routine facts that depend only on the routine's *body* — its
    static size and the set of blocks on CFG cycles — are keyed by
    [Ucode.Hash.routine_body_hash] and reused across passes and across
    clones (a clone's body hashes like its original until
    specialization rewrites it).  The table lives in one process only;
    cross-module summaries travel in isom object files ([lib/isom]).

    Determinism is by construction: a cached value is byte-identical to
    what recomputation would produce, because the key covers everything
    the computation reads.  The table is domain-safe (one mutex) so
    parallel pipeline shards may consult it, and process-global so the
    heuristics can reach it without threading a handle through every
    signature. *)

module U = Ucode.Types

type entry = {
  e_size : int;                (** [Ucode.Size.routine_size] *)
  e_cycles : U.Int_set.t;      (** labels of blocks on a CFG cycle *)
}

type stats = {
  hits : int;
  misses : int;
  entries : int;    (** resident entries *)
}

let lock = Mutex.create ()
let table : (Ucode.Hash.t, entry) Hashtbl.t = Hashtbl.create 256
let hits = ref 0
let misses = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* One flat build serves everything: the digest (the key), the
   instruction count, and the cycle analysis — a single walk over the
   block list instead of one per question. *)

let entry_of_flat fl : entry =
  { e_size = Ucode.Flat.n_instrs fl; e_cycles = Ucode.Flat.cycles fl }

let find (r : U.routine) : entry =
  let fl = Ucode.Flat.of_routine r in
  let key = Ucode.Flat.body_hash fl in
  match locked (fun () ->
      match Hashtbl.find_opt table key with
      | Some e -> incr hits; Some e
      | None -> incr misses; None)
  with
  | Some e -> e
  | None ->
    (* Compute outside the lock: Tarjan on a big routine must not
       serialize other domains' lookups.  A racing domain may compute
       the same entry; both results are identical, either insert wins. *)
    let e = entry_of_flat fl in
    locked (fun () -> Hashtbl.replace table key e);
    e

let size r = (find r).e_size
let cycles r = (find r).e_cycles

let stats () =
  locked (fun () ->
      { hits = !hits; misses = !misses; entries = Hashtbl.length table })

let clear () =
  locked (fun () -> Hashtbl.reset table; hits := 0; misses := 0)
