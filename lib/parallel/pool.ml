(** A warm pool of OCaml 5 domains with a deterministic parallel map
    built on per-executor work-stealing deques.

    The contract that makes the pool safe to use inside a compiler is
    *determinism*: [map_array pool f xs] returns exactly what
    [Array.map f xs] returns — every result lands in the slot of its
    input, whatever order the items were executed in, and the first
    failing item (by index, not by completion time) is the one whose
    exception is re-raised.  Items are scheduled in index order; the
    order in which they finish affects wall-clock behavior only, never
    results.

    Execution model, built for millisecond compiles where the fixed
    costs dominate:

    - Items are grouped into *chunks* of ~[n / (4 * jobs)] items so a
      task is worth its scheduling overhead; a chunk is the unit of
      claiming and stealing.
    - Chunks are dealt round-robin into one deque per executor (the
      caller is executor 0 and participates fully).  Claiming from the
      own deque is a single [Atomic.fetch_and_add] — no lock, no
      syscall.  An executor whose deque runs dry *steals* from the
      other deques, so a straggling chunk never idles the rest of the
      pool.
    - The pool is *warm*: one pool per process, kept alive across
      maps.  [set_jobs] resizes it in place (spawning or joining only
      the delta) instead of tearing it down, so consecutive maps at
      the same degree spawn no domains at all.  Workers sleep on a
      condition variable between maps.

    A pool with [jobs = 1] spawns no domains and runs everything
    inline, so the sequential path is byte-for-byte the code that ran
    before the pool existed.  Calls from inside a worker run inline
    too, which makes nested maps (a batched compile whose per-workload
    compiles themselves shard their routines) deadlock-free. *)

(* Set in each worker so re-entrant maps degrade to sequential
   execution instead of deadlocking the pool. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)
let in_worker () = Domain.DLS.get in_worker_key

(* One parallel map in flight.  [deques.(e)] holds the chunk ids dealt
   to executor [e] in scheduling order; [heads.(e)] is the next
   unclaimed position.  Claims are [fetch_and_add] tickets: a ticket
   past the end of the deque means "drained", and over-claimed tickets
   are simply discarded, so no claim needs a lock.  [remaining] counts
   chunks not yet *finished* (claimed is not enough — the caller must
   not return while a stolen chunk is still running). *)
type batch = {
  deques : int array array;
  heads : int Atomic.t array;
  run_chunk : int -> unit;
  remaining : int Atomic.t;
}

type t = {
  lock : Mutex.t;
  work : Condition.t;      (* a new batch was submitted / pool resized *)
  finished : Condition.t;  (* a batch completed *)
  mutable batch : batch option;
  mutable batch_id : int;
  mutable stop : bool;
  mutable jobs : int;
  mutable workers : (int * unit Domain.t) list;  (* executor index >= 1 *)
  mutable spawned : int;   (* lifetime Domain.spawn count, for tests *)
}

(* ------------------------------------------------------------------ *)
(* Claiming and stealing.                                              *)

(* Try to claim and run one chunk from deque [q]; false if drained or
   the claim lost the race. *)
let claim (b : batch) q =
  let dq = b.deques.(q) in
  let h = Atomic.fetch_and_add b.heads.(q) 1 in
  if h < Array.length dq then begin
    b.run_chunk dq.(h);
    true
  end
  else false

(* Work through the batch as executor [me]: drain the own deque with
   the lock-free fast path, then sweep the other deques for work to
   steal, until every deque is drained. *)
let participate (b : batch) ~me =
  let nq = Array.length b.deques in
  let my = me mod nq in
  let steals = ref 0 in
  let rec sweep k =
    if k >= nq then false
    else
      let q = (my + k) mod nq in
      (* Peek before claiming so drained deques are not bumped on
         every sweep. *)
      if Atomic.get b.heads.(q) < Array.length b.deques.(q) && claim b q
      then begin
        incr steals;
        true
      end
      else sweep (k + 1)
  in
  let rec go () =
    if claim b my then go () else if sweep 1 then go () else ()
  in
  go ();
  if !steals > 0 && Telemetry.Collector.enabled () then
    Telemetry.Collector.count "pool.steal" !steals

(* ------------------------------------------------------------------ *)
(* Workers.                                                            *)

let worker (t : t) ~me () =
  Domain.DLS.set in_worker_key true;
  let last_id = ref (-1) in
  let idle_us = ref 0.0 in
  let rec loop () =
    Mutex.lock t.lock;
    let waited = ref false in
    let t0 =
      if Telemetry.Collector.enabled () then Telemetry.Clock.now_us ()
      else 0.0
    in
    while
      (not t.stop) && me < t.jobs
      && (t.batch = None || t.batch_id = !last_id)
    do
      waited := true;
      Condition.wait t.work t.lock
    done;
    if !waited && Telemetry.Collector.enabled () then begin
      idle_us := !idle_us +. (Telemetry.Clock.now_us () -. t0);
      Telemetry.Collector.gauge
        (Printf.sprintf "pool.idle_us.worker%d" me)
        !idle_us
    end;
    if t.stop || me >= t.jobs then Mutex.unlock t.lock
    else begin
      let b = Option.get t.batch in
      last_id := t.batch_id;
      Mutex.unlock t.lock;
      participate b ~me;
      loop ()
    end
  in
  loop ()

(* Callers hold [t.lock]. *)
let spawn_locked t ~me =
  t.spawned <- t.spawned + 1;
  t.workers <- (me, Domain.spawn (worker t ~me)) :: t.workers

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    { lock = Mutex.create (); work = Condition.create ();
      finished = Condition.create (); batch = None; batch_id = 0;
      stop = false; jobs; workers = []; spawned = 0 }
  in
  (* The caller participates in every map, so [jobs] total executors
     means [jobs - 1] spawned domains. *)
  Mutex.lock t.lock;
  for me = 1 to jobs - 1 do
    spawn_locked t ~me
  done;
  Mutex.unlock t.lock;
  t

let jobs t = t.jobs
let spawned t = t.spawned

(** Resize the pool in place: spawn or join only the delta.  A no-op
    at the current degree — consecutive maps at one level reuse the
    warm workers. *)
let resize t n =
  let n = max 1 n in
  Mutex.lock t.lock;
  if n = t.jobs then Mutex.unlock t.lock
  else begin
    t.jobs <- n;
    if n > List.length t.workers + 1 then begin
      let have = List.map fst t.workers in
      for me = 1 to n - 1 do
        if not (List.mem me have) then spawn_locked t ~me
      done;
      Mutex.unlock t.lock
    end
    else begin
      (* Shrinking: wake everyone; workers with an index past the new
         degree exit their loop and can be joined. *)
      Condition.broadcast t.work;
      let surplus, kept = List.partition (fun (me, _) -> me >= n) t.workers in
      t.workers <- kept;
      Mutex.unlock t.lock;
      List.iter (fun (_, d) -> Domain.join d) surplus
    end
  end

let shutdown t =
  Mutex.lock t.lock;
  t.stop <- true;
  Condition.broadcast t.work;
  let ws = t.workers in
  t.workers <- [];
  Mutex.unlock t.lock;
  List.iter (fun (_, d) -> Domain.join d) ws

(* ------------------------------------------------------------------ *)
(* The deterministic map.                                              *)

let default_chunk_size ~jobs n = max 1 (n / (4 * jobs))

let map_array_in (t : t) ?chunk_size (f : 'a -> 'b) (xs : 'a array)
    : 'b array =
  let n = Array.length xs in
  if n = 0 then [||]
  else if t.jobs <= 1 || n = 1 || in_worker () then Array.map f xs
  else begin
    let jobs = t.jobs in
    let results : 'b option array = Array.make n None in
    let errors : exn option array = Array.make n None in
    let has_error = Atomic.make false in
    let csize =
      match chunk_size with
      | Some c -> max 1 c
      | None -> default_chunk_size ~jobs n
    in
    let nchunks = (n + csize - 1) / csize in
    if Telemetry.Collector.enabled () then begin
      Telemetry.Collector.count "pool.maps" 1;
      Telemetry.Collector.count "pool.chunks" nchunks;
      Telemetry.Collector.gauge "pool.chunk_size" (float_of_int csize);
      Telemetry.Collector.gauge "pool.queue_depth" (float_of_int nchunks)
    end;
    let run_item i =
      match f xs.(i) with
      | y -> results.(i) <- Some y
      | exception e ->
        errors.(i) <- Some e;
        Atomic.set has_error true
    in
    let remaining = Atomic.make nchunks in
    let b_cell = ref None in
    let run_chunk c =
      let lo = c * csize in
      let hi = min n (lo + csize) in
      for k = lo to hi - 1 do
        run_item k
      done;
      (* The last finisher clears the batch slot and wakes the caller;
         the broadcast is taken under the pool lock so the caller
         cannot miss it between its check of [remaining] and its
         wait. *)
      if Atomic.fetch_and_add remaining (-1) = 1 then begin
        Mutex.lock t.lock;
        (match (t.batch, !b_cell) with
        | Some cur, Some mine when cur == mine -> t.batch <- None
        | _ -> ());
        Condition.broadcast t.finished;
        Mutex.unlock t.lock
      end
    in
    (* Deal chunks round-robin: executor [e] owns chunks e, e + jobs,
       e + 2*jobs, …  Low chunk ids sit at the head of every deque. *)
    let deques =
      Array.init jobs (fun e ->
          Array.init
            ((nchunks - e + jobs - 1) / jobs)
            (fun k -> e + (k * jobs)))
    in
    let heads = Array.init jobs (fun _ -> Atomic.make 0) in
    let b = { deques; heads; run_chunk; remaining } in
    b_cell := Some b;
    Mutex.lock t.lock;
    t.batch <- Some b;
    t.batch_id <- t.batch_id + 1;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    (* The caller is executor 0; it works alongside the workers... *)
    participate b ~me:0;
    (* ...then waits for stragglers still executing stolen chunks. *)
    Mutex.lock t.lock;
    while Atomic.get remaining > 0 do
      Condition.wait t.finished t.lock
    done;
    Mutex.unlock t.lock;
    if Atomic.get has_error then
      Array.iter (function Some e -> raise e | None -> ()) errors;
    Array.map (function Some y -> y | None -> assert false) results
  end

let map_list_in t ?chunk_size f xs =
  Array.to_list (map_array_in t ?chunk_size f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* The ambient pool.                                                   *)

(* Compilation entry points (the front end, the scalar optimizer) take
   no pool argument; they use the process-wide pool configured here.
   The default degree comes from the HLO_JOBS environment variable so
   an unmodified test binary or dune rule can be re-run parallel
   (`HLO_JOBS=4 dune runtest --force`) — the determinism suite holds
   the results to be identical either way. *)

let env_default_jobs () =
  match Sys.getenv_opt "HLO_JOBS" with
  | Some s ->
    (match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)
  | None -> 1

let requested_jobs = ref (env_default_jobs ())
let current : t option ref = ref None

let shutdown_current () =
  match !current with
  | Some p ->
    current := None;
    shutdown p
  | None -> ()

(* Worker domains still blocked between maps at process exit would die
   with the runtime mid-wait; drain them instead. *)
let () = at_exit shutdown_current

let get_jobs () = !requested_jobs

let set_jobs n =
  let n = max 1 n in
  requested_jobs := n;
  (* Resize the warm pool in place rather than tearing it down; the
     delta workers are spawned or joined, everyone else keeps
     sleeping. *)
  match !current with Some p -> resize p n | None -> ()

let the () =
  match !current with
  | Some p -> p
  | None ->
    let p = create ~jobs:!requested_jobs in
    current := Some p;
    p

let map_array ?chunk_size f xs =
  if !requested_jobs <= 1 then Array.map f xs
  else map_array_in (the ()) ?chunk_size f xs

let map_list ?chunk_size f xs =
  if !requested_jobs <= 1 then List.map f xs
  else map_list_in (the ()) ?chunk_size f xs
