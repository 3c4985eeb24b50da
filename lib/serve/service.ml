(** The compile service.  See the interface for the request lifecycle;
    this file owns the shared stores (artifacts, admission, the
    in-flight coalescing table).

    Serializing the compile itself is a requirement, not a
    shortcut: the warm domain pool serves one batch at a time, and the
    ambient telemetry collector — which is what captures the
    per-request decision journal — is process-global.
    Admission's single slot is what serializes it.  Concurrency lives
    where it pays: connection handling, frame parsing, cache lookups
    and coalescing all overlap; the cores go to *one* compile at a time
    through the pool. *)

module J = Telemetry.Json
module P = Protocol

type config = {
  jobs : int;
  request_budget : float;
  queue_limit : int;
  artifact_dir : string option;
  artifact_cap : int option;
  max_frame : int;
}

let default_config =
  { jobs = 1; request_budget = 1.0e9;
    queue_limit = 256; artifact_dir = None; artifact_cap = None;
    max_frame = P.default_max_frame }

(* What a finished leader leaves for coalesced waiters: the output
   superset on success, or the failure/rejection response (a failure
   still holding its superset pieces). *)
type outcome =
  | Superset of (string * string) list
  | Failure of P.response

type inflight = { mutable done_ : outcome option; resolved : Condition.t }

type t = {
  cfg : config;
  admission : Admission.t;
  artifacts : Artifacts.t;
  telem : Telemetry.Collector.t;  (** server-lifetime counters/spans *)
  lock : Mutex.t;  (** guards [inflight], [stopping], [active] *)
  inflight : (string, inflight) Hashtbl.t;
  drained : Condition.t;
  mutable stopping : bool;
  mutable active : int;  (** compile requests inside {!handle} *)
}

let create cfg =
  Parallel.Pool.set_jobs cfg.jobs;
  { cfg;
    artifacts = Artifacts.create ?dir:cfg.artifact_dir ?cap:cfg.artifact_cap ();
    admission =
      Admission.create ~request_budget:cfg.request_budget
        ~queue_limit:cfg.queue_limit;
    telem = Telemetry.Collector.create (); lock = Mutex.create ();
    inflight = Hashtbl.create 16;
    drained = Condition.create (); stopping = false; active = 0 }

let config t = t.cfg
let admission t = t.admission

let count t name = Telemetry.Collector.count_in t.telem name 1.0
let gauge t name v = Telemetry.Collector.gauge_in t.telem name v

(* ------------------------------------------------------------------ *)
(* Option plumbing.                                                    *)

(* Everything that changes the computed output *superset* — and nothing
   that only changes which pieces a client asks to see (stats,
   dump_ir, dump_journal are selection, not computation).  The policy
   enters as its canonical hash, so a tuned compile and a default one
   of the same sources can never alias in the artifact store. *)
let options_canon (o : P.compile_options) =
  String.concat ";"
    (("policy=" ^ Policy.hash o.P.co_config)
     :: List.map (fun (k, v) -> k ^ "=" ^ v) (Policy.switches o.P.co_config)
    @ [ "main=" ^ o.P.co_main; "runner=" ^ P.runner_name o.P.co_runner;
        Printf.sprintf "profile=%b" o.P.co_dump_profile;
        Printf.sprintf "asm=%b" o.P.co_dump_asm ])

(* The pieces of the superset a given client printout wants, in
   `hloc`'s print order.  [diag] always rides along (it goes to
   stderr). *)
let select_outputs (superset : (string * string) list)
    (o : P.compile_options) : (string * string) list =
  let piece name = List.assoc_opt name superset in
  let want =
    [ ("diag", true);
      ("train", o.P.co_stats);
      ("profile", o.P.co_dump_profile);
      ("report", o.P.co_stats);
      ("ir", o.P.co_dump_ir);
      ("asm", o.P.co_dump_asm);
      ("journal", o.P.co_dump_journal);
      ("run_output", true);
      ("run_stats", o.P.co_stats) ]
  in
  List.filter_map
    (fun (name, wanted) ->
      if wanted then Option.map (fun text -> (name, text)) (piece name)
      else None)
    want

(* A failure keeps the superset pieces produced before it, like a
   success; each reply selects from them for its own client. *)
let select_response (o : P.compile_options) = function
  | P.Failed { kind; reason; outputs } ->
    P.Failed { kind; reason; outputs = select_outputs outputs o }
  | resp -> resp

(* ------------------------------------------------------------------ *)
(* The compile itself.                                                 *)

(* Run the shared pipeline with every selection-only piece switched on
   and a private collector installed, so the decision journal belongs
   to exactly this request.  Only the holder of the admission slot
   calls this.  The previously ambient collector (if any — tests
   install their own) is restored afterwards. *)
let compile t modules o =
  Telemetry.Collector.with_span_in t.telem "serve.compile" @@ fun () ->
  let prev = Telemetry.Collector.active () in
  let c = Telemetry.Collector.create () in
  Telemetry.Collector.install c;
  Fun.protect
    ~finally:(fun () ->
      match prev with
      | Some p -> Telemetry.Collector.install p
      | None -> Telemetry.Collector.uninstall ())
    (fun () ->
      Pipeline.compile
        { o with P.co_stats = true; co_dump_ir = true; co_dump_journal = true }
        modules)

(* ------------------------------------------------------------------ *)
(* Request handling.                                                   *)

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let enter t =
  locked t @@ fun () ->
  if t.stopping then false
  else begin
    t.active <- t.active + 1;
    true
  end

let leave t =
  locked t @@ fun () ->
  t.active <- t.active - 1;
  if t.active = 0 then Condition.broadcast t.drained

let shutdown_reject : P.response =
  P.Rejected
    { P.rj_kind = "shutting_down"; rj_cost = 0.0; rj_limit = 0.0;
      rj_reason = "the server is shutting down" }

(* Resolve the in-flight entry for [key] and wake its waiters. *)
let resolve t key outcome =
  locked t @@ fun () ->
  match Hashtbl.find_opt t.inflight key with
  | None -> ()
  | Some fl ->
    fl.done_ <- Some outcome;
    Hashtbl.remove t.inflight key;
    Condition.broadcast fl.resolved

let handle_compile t modules (o : P.compile_options) : P.response =
  let t0 = Telemetry.Clock.now_us () in
  let key = Artifacts.key ~modules ~options_canon:(options_canon o) in
  let elapsed () = Telemetry.Clock.now_us () -. t0 in
  let compiled ~cache ~queued superset =
    P.Compiled
      { outputs = select_outputs superset o; cache; key; queued;
        elapsed_us = elapsed () }
  in
  match Artifacts.find t.artifacts key with
  | Some (superset, kind) ->
    count t "serve.cache.hit";
    compiled
      ~cache:(match kind with Artifacts.Memory -> "hit" | Artifacts.Disk -> "disk")
      ~queued:false superset
  | None -> (
    (* Leader or coalesced waiter? *)
    let role =
      locked t @@ fun () ->
      match Artifacts.find t.artifacts key with
      | Some (superset, _) -> `Hit superset
      | None -> (
        match Hashtbl.find_opt t.inflight key with
        | Some fl -> `Wait fl
        | None ->
          let fl = { done_ = None; resolved = Condition.create () } in
          Hashtbl.replace t.inflight key fl;
          `Lead)
    in
    match role with
    | `Hit superset ->
      count t "serve.cache.hit";
      compiled ~cache:"hit" ~queued:false superset
    | `Wait fl -> (
      count t "serve.coalesced";
      let outcome =
        locked t @@ fun () ->
        while fl.done_ = None do
          Condition.wait fl.resolved t.lock
        done;
        Option.get fl.done_
      in
      match outcome with
      | Superset superset -> compiled ~cache:"coalesced" ~queued:false superset
      | Failure resp -> select_response o resp)
    | `Lead -> (
      let cost = Admission.cost_of_modules modules in
      match Admission.admit t.admission ~cost with
      | Error rej ->
        count t ("serve.rejected." ^ rej.P.rj_kind);
        let resp = P.Rejected rej in
        resolve t key (Failure resp);
        resp
      | Ok ticket ->
        if ticket.Admission.tk_queued then begin
          count t "serve.queued";
          Telemetry.Collector.count_in t.telem "serve.queued_us"
            ticket.Admission.tk_queued_us
        end;
        gauge t "serve.queue_depth"
          (float_of_int (Admission.snapshot t.admission).Admission.sn_waiting);
        let result =
          match compile t modules o with
          | superset -> Ok superset
          | exception e -> Error e
        in
        (* The slot covers the compile alone.  Recording the result
           takes locks that every connection contends for (counters,
           artifact store, [t.lock]); holding the slot through that
           doubled p99 at 1000 connections. *)
        Admission.release t.admission;
        let outcome, resp =
          match result with
          | Ok superset ->
            count t "serve.compiled";
            Artifacts.add t.artifacts key superset;
            ( Superset superset,
              compiled ~cache:"miss" ~queued:ticket.Admission.tk_queued
                superset )
          | Error (Pipeline.Failed { kind; reason; outputs }) ->
            count t "serve.failed";
            let resp = P.Failed { kind; reason; outputs } in
            (Failure resp, select_response o resp)
          | Error e ->
            count t "serve.failed";
            let resp =
              P.Failed
                { kind = "internal"; reason = Printexc.to_string e;
                  outputs = [] }
            in
            (Failure resp, resp)
        in
        resolve t key outcome;
        resp))

(* ------------------------------------------------------------------ *)
(* Statistics.                                                         *)

let stats_json t : J.t =
  let adm = Admission.snapshot t.admission in
  let art = Artifacts.snapshot t.artifacts in
  let sc = Hlo.Summary_cache.stats () in
  let cdb = Hlo.Clone_db.stats () in
  let counters =
    J.Assoc
      (List.map
         (fun (name, v) -> (name, J.Float v))
         (Telemetry.Counters.to_sorted_list
            (Telemetry.Collector.counters t.telem)))
  in
  J.Assoc
    [ ( "admission",
        J.Assoc
          [ ("busy", J.Bool adm.Admission.sn_busy);
            ("request_budget", J.Float adm.Admission.sn_request_budget);
            ("queue_limit", J.Int adm.Admission.sn_queue_limit);
            ("waiting", J.Int adm.Admission.sn_waiting);
            ("admitted", J.Int adm.Admission.sn_admitted);
            ("queued", J.Int adm.Admission.sn_queued);
            ("rejected_over_budget",
             J.Int adm.Admission.sn_rejected_over_budget);
            ("rejected_queue_full",
             J.Int adm.Admission.sn_rejected_queue_full);
            ("rejected_shutdown", J.Int adm.Admission.sn_rejected_shutdown);
            ("peak_waiting", J.Int adm.Admission.sn_peak_waiting) ] );
      ( "artifacts",
        J.Assoc
          [ ("entries", J.Int art.Artifacts.sn_entries);
            ("memory_hits", J.Int art.Artifacts.sn_mem_hits);
            ("disk_hits", J.Int art.Artifacts.sn_disk_hits);
            ("misses", J.Int art.Artifacts.sn_misses);
            ("insertions", J.Int art.Artifacts.sn_insertions);
            ("evictions", J.Int art.Artifacts.sn_evictions);
            ("disk_evictions", J.Int art.Artifacts.sn_disk_evictions);
            ("disk_errors", J.Int art.Artifacts.sn_disk_errors) ] );
      ( "summary_cache",
        J.Assoc
          [ ("hits", J.Int sc.Hlo.Summary_cache.hits);
            ("misses", J.Int sc.Hlo.Summary_cache.misses);
            ("entries", J.Int sc.Hlo.Summary_cache.entries) ] );
      ( "clone_db",
        J.Assoc
          [ ("hits", J.Int cdb.Hlo.Clone_db.hits);
            ("misses", J.Int cdb.Hlo.Clone_db.misses);
            ("entries", J.Int cdb.Hlo.Clone_db.entries) ] );
      ("pool", J.Assoc [ ("jobs", J.Int (Parallel.Pool.get_jobs ())) ]);
      ("counters", counters) ]

(* ------------------------------------------------------------------ *)

let handle t (req : P.request) : P.response =
  try
    match req with
    | P.Ping ->
      count t "serve.requests.ping";
      P.Pong
    | P.Stats ->
      count t "serve.requests.stats";
      P.Stats_reply (stats_json t)
    | P.Shutdown ->
      count t "serve.requests.shutdown";
      (* The server layer drains before replying; handled there. *)
      P.Shutting_down
    | P.Compile { modules; options } ->
      count t "serve.requests.compile";
      if not (enter t) then shutdown_reject
      else
        Fun.protect
          ~finally:(fun () -> leave t)
          (fun () -> handle_compile t modules options)
  with e ->
    P.Failed
      { kind = "internal"; reason = Printexc.to_string e; outputs = [] }

let stop t =
  locked t (fun () -> t.stopping <- true);
  Admission.close t.admission

let drain t =
  locked t (fun () ->
      while t.active > 0 do
        Condition.wait t.drained t.lock
      done)
