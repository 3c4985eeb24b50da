(* Load generator for the hlod compile daemon: concurrent client
   connections over a real Unix-domain socket against an in-process
   server, measuring end-to-end request latency percentiles,
   throughput, cache behaviour and admission verdicts, written to
   _build/bench_serve.json unless a path is given.

     dune exec bench/bench_serve.exe                 # full run
     dune exec bench/bench_serve.exe -- --smoke      # quick CI variant
     dune exec bench/bench_serve.exe -- out.json

   Scenarios sweep connection counts (1 → 1000 concurrent clients, up
   to 10k total requests) over a pool of distinct modules, so the mix
   of artifact-store misses, hits and in-flight coalescing is
   realistic.  A separate *saturation* scenario sends only distinct
   modules against a queue of four, so the bounded queue must fill and
   reject — rejections belong there and nowhere else.  The scenario
   holds the compile slot itself until four requests wait and one has
   been turned away, so the queue fills however fast a compile is.

   Wall-clock numbers depend on the machine (the core count is
   recorded); on a single core the win measured here is serving
   (caching + coalescing + admission), not parallel compilation. *)

module J = Telemetry.Json
module P = Serve.Protocol
module S = Serve.Service
module Server = Serve.Server
module Client = Serve.Client

let cores = Domain.recommended_domain_count ()

let unique_socket =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "hlod-bench-%d-%d.sock" (Unix.getpid ()) !n)

(* The i-th distinct workload: same shape, different constants, so
   every variant compiles and optimizes but hashes differently. *)
let module_src i =
  Printf.sprintf
    "func main() {\n\
    \  var s = %d;\n\
    \  for (var i = 0; i < 40; i = i + 1) { s = s + work(i) + gate(0, i); }\n\
    \  print_int(s);\n\
    \  return 0;\n\
     }\n\
     func work(x) { return x * x + %d; }\n\
     func gate(mode, x) {\n\
    \  if (mode == 0) { return x + %d; }\n\
    \  return x * 2;\n\
     }\n"
    i i (i + 1)

let options = { P.default_options with P.co_stats = true }

let request_for i distinct =
  let m = i mod distinct in
  P.Compile
    { modules = [ (Printf.sprintf "m%03d" m, module_src m) ]; options }

type scenario = {
  sc_name : string;
  sc_conns : int;
  sc_requests : int;
  sc_distinct : int;
  sc_config : S.config;
}

let default_config =
  { S.default_config with S.jobs = 1 }

(* Σ size² estimate of one generated module; saturation allows 1.5x. *)
let one_request_cost =
  Serve.Admission.cost_of_modules [ ("m000", module_src 0) ]

let saturation_config =
  { default_config with
    S.request_budget = one_request_cost *. 1.5;
    queue_limit = 4 }

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int (n - 1) +. 0.5)))

(* Take the compile slot before the clients start; the returned
   function waits, at most 10 s, until the queue is full and one
   request has been rejected, then gives the slot back and says whether
   the queue filled.  Racing real compiles for the slot left the queue
   empty whenever the clients arrived after a compile had finished. *)
let hold_slot service =
  let adm = S.admission service in
  match Serve.Admission.admit adm ~cost:0.0 with
  | Error _ -> fun () -> false
  | Ok _ ->
    fun () ->
      let deadline = Unix.gettimeofday () +. 10.0 in
      let rec wait () =
        let sn = Serve.Admission.snapshot adm in
        if sn.Serve.Admission.sn_waiting = sn.Serve.Admission.sn_queue_limit
           && sn.Serve.Admission.sn_rejected_queue_full > 0
        then true
        else if Unix.gettimeofday () > deadline then false
        else (Thread.delay 0.001; wait ())
      in
      let full = wait () in
      Serve.Admission.release adm;
      full

type tally = {
  mutable compiled : int;
  mutable cache_hits : int;  (** memory, disk or coalesced *)
  mutable rejected : int;
  mutable failed : int;
}

let run_scenario sc =
  let socket = unique_socket () in
  let server = Server.start ~socket sc.sc_config in
  let next = Atomic.make 0 in
  let latencies = Array.make sc.sc_requests nan in
  let tally = { compiled = 0; cache_hits = 0; rejected = 0; failed = 0 } in
  let tally_lock = Mutex.create () in
  let record f =
    Mutex.lock tally_lock;
    f tally;
    Mutex.unlock tally_lock
  in
  let worker () =
    match Client.connect socket with
    | Error _ ->
      (* Count every request this connection would have served. *)
      let rec burn () =
        let i = Atomic.fetch_and_add next 1 in
        if i < sc.sc_requests then begin
          record (fun t -> t.failed <- t.failed + 1);
          burn ()
        end
      in
      burn ()
    | Ok client ->
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < sc.sc_requests then begin
          let t0 = Unix.gettimeofday () in
          (match Client.roundtrip client (request_for i sc.sc_distinct) with
          | Ok (P.Compiled { cache; _ }) ->
            latencies.(i) <- Unix.gettimeofday () -. t0;
            record (fun t ->
                t.compiled <- t.compiled + 1;
                if cache <> "miss" then t.cache_hits <- t.cache_hits + 1)
          | Ok (P.Rejected _) ->
            latencies.(i) <- Unix.gettimeofday () -. t0;
            record (fun t -> t.rejected <- t.rejected + 1)
          | Ok _ | Error _ -> record (fun t -> t.failed <- t.failed + 1));
          loop ()
        end
      in
      loop ();
      Client.close client
  in
  let saturating = sc.sc_name = "saturation" in
  let held =
    if saturating then Some (hold_slot (Server.service server)) else None
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init sc.sc_conns (fun _ -> Thread.create worker ())
  in
  let queue_filled = Option.map (fun wait_full -> wait_full ()) held in
  List.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in
  let stats = S.stats_json (Server.service server) in
  Server.stop server;
  let answered = Array.of_list
      (List.filter (fun l -> not (Float.is_nan l))
         (Array.to_list latencies))
  in
  Array.sort compare answered;
  let ms l = l *. 1e3 in
  let p50 = ms (percentile answered 0.50) in
  let p90 = ms (percentile answered 0.90) in
  let p99 = ms (percentile answered 0.99) in
  let throughput = float_of_int sc.sc_requests /. wall in
  let served = tally.compiled + tally.rejected in
  let hit_rate =
    if tally.compiled = 0 then 0.0
    else float_of_int tally.cache_hits /. float_of_int tally.compiled
  in
  let admission_int field =
    match Option.bind (J.member "admission" stats) (J.member field) with
    | Some (J.Int n) -> n
    | _ -> 0
  in
  Fmt.pr
    "%-12s conns=%-4d requests=%-5d distinct=%-3d wall=%.2fs \
     thr=%.0f req/s p50=%.2fms p90=%.2fms p99=%.2fms hit=%.0f%% \
     rejected=%d failed=%d@."
    sc.sc_name sc.sc_conns sc.sc_requests sc.sc_distinct wall throughput p50
    p90 p99 (hit_rate *. 100.0) tally.rejected tally.failed;
  J.Assoc
    ([ ("name", J.String sc.sc_name); ("conns", J.Int sc.sc_conns);
      ("requests", J.Int sc.sc_requests);
      ("distinct_modules", J.Int sc.sc_distinct);
      ("wall_s", J.Float wall);
      ("throughput_rps", J.Float throughput);
      ("latency_ms_p50", J.Float p50); ("latency_ms_p90", J.Float p90);
      ("latency_ms_p99", J.Float p99);
      ("compiled", J.Int tally.compiled);
      ("cache_hits", J.Int tally.cache_hits);
      ("cache_hit_rate", J.Float hit_rate);
      ("rejected", J.Int tally.rejected);
      ("failed", J.Int tally.failed);
      ("answered", J.Int served);
      ("server_admitted", J.Int (admission_int "admitted"));
      ("server_queued", J.Int (admission_int "queued"));
      ("server_rejected_queue_full",
       J.Int (admission_int "rejected_queue_full"));
      ("server_rejected_over_budget",
       J.Int (admission_int "rejected_over_budget"));
      ("server_peak_waiting", J.Int (admission_int "peak_waiting")) ]
    @ match queue_filled with
      | Some filled -> [ ("queue_filled", J.Bool filled) ]
      | None -> [])

let scenarios ~smoke =
  if smoke then
    [ { sc_name = "baseline-1"; sc_conns = 1; sc_requests = 100;
        sc_distinct = 1; sc_config = default_config };
      { sc_name = "c8"; sc_conns = 8; sc_requests = 200; sc_distinct = 8;
        sc_config = default_config };
      { sc_name = "c32"; sc_conns = 32; sc_requests = 400; sc_distinct = 8;
        sc_config = default_config };
      { sc_name = "saturation"; sc_conns = 16; sc_requests = 64;
        sc_distinct = 64; sc_config = saturation_config } ]
  else
    [ { sc_name = "baseline-1"; sc_conns = 1; sc_requests = 500;
        sc_distinct = 1; sc_config = default_config };
      { sc_name = "c8"; sc_conns = 8; sc_requests = 1000; sc_distinct = 16;
        sc_config = default_config };
      { sc_name = "c64"; sc_conns = 64; sc_requests = 2000; sc_distinct = 16;
        sc_config = default_config };
      { sc_name = "c256"; sc_conns = 256; sc_requests = 4000;
        sc_distinct = 64; sc_config = default_config };
      { sc_name = "c1000-10k"; sc_conns = 1000; sc_requests = 10000;
        sc_distinct = 64; sc_config = default_config };
      { sc_name = "saturation"; sc_conns = 32; sc_requests = 128;
        sc_distinct = 128; sc_config = saturation_config } ]

let () =
  let smoke = Array.exists (( = ) "--smoke") Sys.argv in
  let out =
    match
      List.filter
        (fun a -> a <> "--smoke" && not (String.length a = 0))
        (List.tl (Array.to_list Sys.argv))
    with
    | [ path ] -> path
    | _ -> "_build/bench_serve.json"
  in
  Fmt.pr "bench-serve: %s mode, %d core%s@."
    (if smoke then "smoke" else "full")
    cores
    (if cores = 1 then "" else "s");
  let rows = List.map run_scenario (scenarios ~smoke) in
  let doc =
    J.Assoc
      [ ("bench", J.String "pr7-serve-load");
        ("mode", J.String (if smoke then "smoke" else "full"));
        ("cores", J.Int cores);
        ("one_request_cost", J.Float one_request_cost);
        ("scenarios", J.List rows) ]
  in
  Out_channel.with_open_bin out (fun oc ->
      output_string oc (J.to_string doc);
      output_char oc '\n');
  Fmt.pr "wrote %s@." out;
  (* Gates: no failures; rejections only in saturation, whose queue
     must fill while the slot is held, and which must both queue a
     request for the compile slot and reject one queue_full. *)
  List.iter2
    (fun sc row ->
      let geti field =
        match J.member field row with Some (J.Int n) -> n | _ -> -1
      in
      let gate ok what =
        if not ok then (Fmt.epr "bench-serve: %s: %s@." sc.sc_name what; exit 1)
      in
      gate (geti "failed" = 0) "failed requests";
      if sc.sc_name <> "saturation" then
        gate (geti "rejected" = 0) "unexpected rejections"
      else (
        gate (J.member "queue_filled" row = Some (J.Bool true))
          "the queue did not fill within 10 s of holding the slot";
        gate (geti "server_queued" > 0) "no request waited for the slot";
        gate (geti "server_rejected_queue_full" > 0) "no queue_full rejection"))
    (scenarios ~smoke) rows
