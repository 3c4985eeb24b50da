(** The process-wide pool of OCaml 5 domains and its deterministic
    parallel map.

    The contract that makes the pool safe to use inside a compiler is
    *determinism*: [map_list f xs] returns exactly what [List.map f xs]
    returns — every result lands in the slot of its input, whatever
    order the items were executed in, and the first failing item (by
    index, not by completion time) is the one whose exception is
    re-raised.  The order in which items finish affects wall-clock
    behavior only, never results.

    Execution model, built for millisecond compiles where the fixed
    costs dominate:

    - Items are grouped into *chunks* of ~[n / (4 * jobs)] items so a
      task is worth its scheduling overhead.
    - Every executor (the caller and the workers) claims the next chunk
      from one shared cursor with a single [Atomic.fetch_and_add] — no
      lock, no syscall — until the cursor runs past the last chunk.  A
      straggling chunk holds up only its own executor.
    - The pool is *warm*: one per process, kept alive across maps.
      [set_jobs] resizes it in place (the next map spawns only the
      missing workers; shrinking joins only the surplus), so
      consecutive maps at the same degree spawn no domains at all.
      Workers sleep on a condition variable between maps.

    At [jobs = 1] the pool spawns no domains and the map is [List.map].
    Calls from inside a worker run inline too, which makes nested maps
    (a batched compile whose per-workload compiles themselves shard
    their routines) deadlock-free. *)

let max_jobs = 64

(* Set in each worker so re-entrant maps degrade to sequential
   execution instead of deadlocking the pool. *)
let in_worker_key : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* One parallel map in flight.  [next] is the cursor: a ticket at or
   past [nchunks] means "drained", and over-claimed tickets are simply
   discarded.  [remaining] counts chunks not yet *finished* (claimed is
   not enough — the caller must not return while a chunk another
   executor claimed is still running). *)
type batch = {
  next : int Atomic.t;
  nchunks : int;
  run_chunk : int -> unit;
  remaining : int Atomic.t;
}

(* The pool's state, guarded by [lock]; the map's fast path reads
   [jobs] without it. *)
let lock = Mutex.create ()
let work = Condition.create ()      (* a new batch was submitted / resized *)
let finished = Condition.create ()  (* a batch completed *)
let current : batch option ref = ref None
let batch_id = ref 0
let workers : (int * unit Domain.t) list ref = ref []  (* executor >= 1 *)
let spawned_count = ref 0

let env_default_jobs () =
  match
    Option.bind (Sys.getenv_opt "HLO_JOBS") (fun s ->
        int_of_string_opt (String.trim s))
  with
  | Some n when n >= 1 && n <= max_jobs -> n
  | _ -> 1

(* The default degree comes from HLO_JOBS so an unmodified test binary
   or dune rule can be re-run parallel (`HLO_JOBS=4 dune runtest
   --force`) — the determinism suite holds the results to be identical
   either way. *)
let jobs = ref (env_default_jobs ())

let get_jobs () = !jobs
let spawned () = !spawned_count

let participate b =
  let rec go () =
    let c = Atomic.fetch_and_add b.next 1 in
    if c < b.nchunks then begin
      b.run_chunk c;
      go ()
    end
  in
  go ()

let worker ~me () =
  Domain.DLS.set in_worker_key true;
  let rec loop ~last_id ~idle_us =
    Mutex.lock lock;
    let waited = ref false in
    let t0 =
      if Telemetry.Collector.enabled () then Telemetry.Clock.now_us ()
      else 0.0
    in
    while me < !jobs && (Option.is_none !current || !batch_id = last_id) do
      waited := true;
      Condition.wait work lock
    done;
    let idle_us =
      if !waited && Telemetry.Collector.enabled () then begin
        let idle_us = idle_us +. (Telemetry.Clock.now_us () -. t0) in
        Telemetry.Collector.gauge
          (Printf.sprintf "pool.idle_us.worker%d" me)
          idle_us;
        idle_us
      end
      else idle_us
    in
    (* A worker whose index is past the degree exits, to be joined. *)
    if me >= !jobs then Mutex.unlock lock
    else begin
      let b = Option.get !current in
      let last_id = !batch_id in
      Mutex.unlock lock;
      participate b;
      loop ~last_id ~idle_us
    end
  in
  loop ~last_id:(-1) ~idle_us:0.0

(* Spawn the workers the degree asks for and the pool lacks. *)
let grow () =
  Mutex.protect lock @@ fun () ->
  let have = List.map fst !workers in
  for me = 1 to !jobs - 1 do
    if not (List.mem me have) then begin
      incr spawned_count;
      workers := (me, Domain.spawn (worker ~me)) :: !workers
    end
  done

let set_jobs n =
  if n > max_jobs then
    invalid_arg
      (Printf.sprintf "Pool.set_jobs: %d jobs, at most %d" n max_jobs);
  let surplus =
    Mutex.protect lock (fun () ->
        jobs := max 1 n;
        (* Wake everyone; workers with an index past the new degree
           exit their loop and are joined below. *)
        Condition.broadcast work;
        let surplus, kept =
          List.partition (fun (me, _) -> me >= !jobs) !workers
        in
        workers := kept;
        surplus)
  in
  List.iter (fun (_, d) -> Domain.join d) surplus

(* Worker domains still blocked between maps at process exit would die
   with the runtime mid-wait; drain them instead. *)
let () = at_exit (fun () -> set_jobs 1)

let map_parallel f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let csize = max 1 (n / (4 * !jobs)) in
  let nchunks = (n + csize - 1) / csize in
  if Telemetry.Collector.enabled () then begin
    Telemetry.Collector.count "pool.maps" 1;
    Telemetry.Collector.count "pool.chunks" nchunks;
    Telemetry.Collector.gauge "pool.chunk_size" (float_of_int csize)
  end;
  let slots = Array.make n None in
  let remaining = Atomic.make nchunks in
  let run_chunk c =
    for i = c * csize to min n ((c + 1) * csize) - 1 do
      slots.(i) <-
        Some (match f xs.(i) with y -> Ok y | exception e -> Error e)
    done;
    (* The last finisher clears the batch slot and wakes the caller;
       the broadcast is taken under the pool lock so the caller cannot
       miss it between its check of [remaining] and its wait. *)
    if Atomic.fetch_and_add remaining (-1) = 1 then
      Mutex.protect lock (fun () ->
          (match !current with
          | Some cur when cur.remaining == remaining -> current := None
          | _ -> ());
          Condition.broadcast finished)
  in
  let b = { next = Atomic.make 0; nchunks; run_chunk; remaining } in
  grow ();
  Mutex.protect lock (fun () ->
      current := Some b;
      incr batch_id;
      Condition.broadcast work);
  (* The caller works alongside the workers... *)
  participate b;
  (* ...then waits for chunks other executors are still running. *)
  Mutex.protect lock (fun () ->
      while Atomic.get remaining > 0 do
        Condition.wait finished lock
      done);
  (* In index order, so the first failure by index is the one raised. *)
  Array.to_list
    (Array.map
       (function
         | Some (Ok y) -> y
         | Some (Error e) -> raise e
         | None -> assert false)
       slots)

let map_list f xs =
  match xs with
  | _ :: _ :: _ when !jobs > 1 && not (Domain.DLS.get in_worker_key) ->
    map_parallel f xs
  | _ -> List.map f xs
