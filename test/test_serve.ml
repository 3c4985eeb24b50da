(* The serving subsystem suite.

   Covers the hlod wire protocol (framing is fail-safe: malformed,
   oversized and truncated frames are values), admission control (the
   Σ size² budget as a serving resource, FIFO, structured rejects),
   the content-addressed artifact store (memory + disk, corruption is
   a miss), the compile service (bit-identity with the in-process
   pipeline, cache/coalescing semantics, shutdown draining), the
   socket server end to end, and the cross-request caches under
   concurrent use. *)

module P = Serve.Protocol
module J = Telemetry.Json
module U = Ucode.Types

let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let unique =
  let n = ref 0 in
  fun prefix ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) !n)

let temp_dir prefix =
  let dir = unique prefix in
  Unix.mkdir dir 0o755;
  dir

(* ------------------------------------------------------------------ *)
(* Sample programs.                                                    *)

let util_src =
  "func square(x) { return x * x; }\n\
   func poly(mode, x) {\n\
  \  if (mode == 0) { return x + 1; }\n\
  \  return x * 2;\n\
   }\n"

let main_src =
  "func main() {\n\
  \  var s = 0;\n\
  \  for (var i = 0; i < 50; i = i + 1) {\n\
  \    s = s + square(i) + poly(0, i);\n\
  \  }\n\
  \  print_int(s);\n\
  \  return 0;\n\
   }\n"

let sample_modules = [ ("main", main_src); ("util", util_src) ]

let full_options =
  { P.default_options with
    P.co_stats = true; co_dump_ir = true; co_dump_journal = true }

(* ------------------------------------------------------------------ *)
(* Protocol framing.                                                   *)

(* Push raw bytes through a file so we exercise the real channel
   paths. *)
let with_bytes bytes f =
  let path = unique "frame" in
  Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with _ -> ())
    (fun () -> In_channel.with_open_bin path f)

let frame_result = function
  | Ok payload -> "ok:" ^ payload
  | Error e -> P.frame_error_to_string e

let test_frame_roundtrip () =
  let path = unique "frame" in
  let payload = "{\"op\":\"ping\"}" in
  Out_channel.with_open_bin path (fun oc ->
      P.write_frame oc payload;
      P.write_frame oc "");
  let a, b, c =
    In_channel.with_open_bin path (fun ic ->
        let a = P.read_frame ic in
        let b = P.read_frame ic in
        let c = P.read_frame ic in
        (a, b, c))
  in
  Sys.remove path;
  check_string "first frame" ("ok:" ^ payload) (frame_result a);
  check_string "empty frame" "ok:" (frame_result b);
  check_string "clean EOF" "connection closed" (frame_result c)

let test_frame_failures () =
  with_bytes "" (fun ic ->
      check_bool "empty stream is Closed" true (P.read_frame ic = Error P.Closed));
  with_bytes "hlod1 12" (fun ic ->
      check_bool "EOF inside header is Truncated" true
        (P.read_frame ic = Error P.Truncated));
  with_bytes "hlod1 100\nshort" (fun ic ->
      check_bool "EOF inside payload is Truncated" true
        (P.read_frame ic = Error P.Truncated));
  with_bytes "hlod9 4\nabcd" (fun ic ->
      match P.read_frame ic with
      | Error (P.Malformed _) -> ()
      | r -> Alcotest.failf "bad magic: %s" (frame_result r));
  with_bytes "hlod1 many\n" (fun ic ->
      match P.read_frame ic with
      | Error (P.Malformed _) -> ()
      | r -> Alcotest.failf "unparsable length: %s" (frame_result r));
  with_bytes "hlod1 -3\n" (fun ic ->
      match P.read_frame ic with
      | Error (P.Malformed _) -> ()
      | r -> Alcotest.failf "negative length: %s" (frame_result r));
  with_bytes (String.make 200 'x') (fun ic ->
      match P.read_frame ic with
      | Error (P.Malformed _) -> ()
      | r -> Alcotest.failf "unbounded header: %s" (frame_result r));
  with_bytes "hlod1 2048\n" (fun ic ->
      match P.read_frame ~max_bytes:1024 ic with
      | Error (P.Oversized { announced = 2048; limit = 1024 }) -> ()
      | r -> Alcotest.failf "oversized: %s" (frame_result r))

let test_message_roundtrip () =
  let reqs =
    [ P.Ping; P.Stats; P.Shutdown;
      P.Compile { modules = sample_modules; options = full_options };
      P.Compile
        { modules = [ ("m", "func main() { return 0; }") ];
          options =
            { P.default_options with
              P.co_config =
                Policy.with_scope
                  { Policy.default with Policy.max_operations = Some 3 }
                  Policy.Base;
              co_runner = P.Run_none } } ]
  in
  List.iter
    (fun req ->
      match P.request_of_json (P.request_to_json req) with
      | Ok req' -> check_bool "request round-trip" true (req = req')
      | Error msg -> Alcotest.fail msg)
    reqs;
  let resps =
    [ P.Pong; P.Shutting_down;
      P.Compiled
        { outputs = [ ("diag", ""); ("ir", "routine main\n") ];
          cache = "miss"; key = "abc"; queued = true; elapsed_us = 12.5 };
      P.Failed
        { kind = "trap"; reason = "trap in main: boom";
          outputs = [ ("report", "[hlo]\n") ] };
      P.Rejected
        { P.rj_kind = "queue_full"; rj_cost = 3.0; rj_limit = 2.0;
          rj_reason = "no" };
      P.Stats_reply (J.Assoc [ ("x", J.Int 1) ]) ]
  in
  List.iter
    (fun resp ->
      match P.response_of_json (P.response_to_json resp) with
      | Ok resp' -> check_bool "response round-trip" true (resp = resp')
      | Error msg -> Alcotest.fail msg)
    resps;
  match P.request_of_json (J.Assoc [ ("op", J.String "compile") ]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "compile without modules must not decode"

(* ------------------------------------------------------------------ *)
(* Admission control.                                                  *)

module Adm = Serve.Admission

let test_admission_budgets () =
  let a = Adm.create ~server_budget:100.0 ~request_budget:10.0 ~queue_limit:4 in
  (match Adm.admit a ~cost:11.0 with
  | Error r ->
    check_string "over request budget" "request_over_budget" r.P.rj_kind
  | Ok _ -> Alcotest.fail "must reject over-request-budget");
  let a2 = Adm.create ~server_budget:8.0 ~request_budget:100.0 ~queue_limit:4 in
  (match Adm.admit a2 ~cost:9.0 with
  | Error r ->
    check_string "bigger than the whole pool" "request_over_budget" r.P.rj_kind
  | Ok _ -> Alcotest.fail "must reject bigger-than-pool");
  match Adm.admit a ~cost:10.0 with
  | Error _ -> Alcotest.fail "fitting request must be admitted"
  | Ok tk ->
    check_bool "no queueing when capacity is free" false tk.Adm.tk_queued;
    Adm.release a tk;
    let sn = Adm.snapshot a in
    check_int "admitted" 1 sn.Adm.sn_admitted;
    check_bool "capacity returned" true (sn.Adm.sn_in_use = 0.0)

let test_admission_fifo_queue () =
  let a = Adm.create ~server_budget:10.0 ~request_budget:10.0 ~queue_limit:4 in
  let first =
    match Adm.admit a ~cost:8.0 with
    | Ok tk -> tk
    | Error _ -> Alcotest.fail "first admit"
  in
  let order = ref [] in
  let order_lock = Mutex.create () in
  let waiter label cost =
    Thread.create
      (fun () ->
        match Adm.admit a ~cost with
        | Ok tk ->
          Mutex.lock order_lock;
          order := label :: !order;
          Mutex.unlock order_lock;
          Adm.release a tk
        | Error _ -> ())
      ()
  in
  (* B arrives first and is big; C is small and arrives second.  FIFO
     means C must not jump the queue even though it would fit now. *)
  let tb = waiter "B" 8.0 in
  let rec wait_waiting n =
    if n = 0 then Alcotest.fail "B never queued"
    else if (Adm.snapshot a).Adm.sn_waiting < 1 then (
      Thread.delay 0.005;
      wait_waiting (n - 1))
  in
  wait_waiting 400;
  let tc = waiter "C" 1.0 in
  Thread.delay 0.05;
  check_string "C waits behind B" "" (String.concat "," !order);
  Adm.release a first;
  Thread.join tb;
  Thread.join tc;
  check_string "grant order is arrival order" "C,B" (String.concat "," !order);
  let sn = Adm.snapshot a in
  check_int "both eventually admitted" 3 sn.Adm.sn_admitted;
  check_bool "queue accounted" true (sn.Adm.sn_queued >= 1)

let test_admission_queue_full_and_close () =
  let a = Adm.create ~server_budget:10.0 ~request_budget:10.0 ~queue_limit:0 in
  let tk =
    match Adm.admit a ~cost:10.0 with
    | Ok tk -> tk
    | Error _ -> Alcotest.fail "admit"
  in
  (match Adm.admit a ~cost:1.0 with
  | Error r -> check_string "queue full" "queue_full" r.P.rj_kind
  | Ok _ -> Alcotest.fail "queue_limit 0 must reject a busy pool");
  Adm.close a;
  (match Adm.admit a ~cost:1.0 with
  | Error r -> check_string "closed" "shutting_down" r.P.rj_kind
  | Ok _ -> Alcotest.fail "closed admission must reject");
  Adm.release a tk

let test_admission_cost_model () =
  let m n = [ ("m", String.make n 'x') ] in
  let c1 = Adm.cost_of_modules (m 1600) in
  let c2 = Adm.cost_of_modules (m 3200) in
  check_bool "cost is superlinear in module size" true (c2 > 2.0 *. c1);
  check_bool "two small modules cost less than one double module" true
    (Adm.cost_of_modules [ ("a", String.make 1600 'x');
                           ("b", String.make 1600 'x') ]
     < c2)

(* ------------------------------------------------------------------ *)
(* Artifact store.                                                     *)

module Art = Serve.Artifacts

let test_artifacts_memory () =
  let t = Art.create () in
  let k = Art.key ~modules:sample_modules ~options_canon:"canon" in
  let k2 = Art.key ~modules:sample_modules ~options_canon:"other" in
  check_bool "options change the key" true (k <> k2);
  check_bool "miss before add" true (Art.find t k = None);
  Art.add t k [ ("ir", "text") ];
  (match Art.find t k with
  | Some ([ ("ir", "text") ], Art.Memory) -> ()
  | _ -> Alcotest.fail "memory hit expected");
  let sn = Art.snapshot t in
  check_int "entries" 1 sn.Art.sn_entries;
  check_int "one miss one hit" 1 sn.Art.sn_mem_hits;
  check_int "insertions" 1 sn.Art.sn_insertions

let test_artifacts_disk_and_corruption () =
  let dir = temp_dir "hlod-art" in
  let outputs = [ ("diag", ""); ("ir", "routine main\n"); ("journal", "") ] in
  let k = Art.key ~modules:sample_modules ~options_canon:"canon" in
  let t1 = Art.create ~dir () in
  Art.add t1 k outputs;
  (* A fresh store over the same directory promotes from disk. *)
  let t2 = Art.create ~dir () in
  (match Art.find t2 k with
  | Some (got, Art.Disk) -> check_bool "payload round-trips" true (got = outputs)
  | _ -> Alcotest.fail "disk hit expected");
  (match Art.find t2 k with
  | Some (_, Art.Memory) -> ()
  | _ -> Alcotest.fail "promoted to memory after the disk hit");
  (* Corrupt the artifact file: a fresh store must treat it as a miss,
     not crash and not serve garbage. *)
  let path = Filename.concat dir (k ^ ".hart") in
  Out_channel.with_open_bin path (fun oc -> output_string oc "garbage");
  let t3 = Art.create ~dir () in
  check_bool "corruption is a miss" true (Art.find t3 k = None);
  let sn = Art.snapshot t3 in
  check_bool "corruption is counted" true (sn.Art.sn_disk_errors >= 1)

let test_artifacts_memory_lru () =
  let t = Art.create ~cap:2 () in
  let key canon = Art.key ~modules:sample_modules ~options_canon:canon in
  let k1 = key "one" and k2 = key "two" and k3 = key "three" in
  Art.add t k1 [ ("ir", "1") ];
  Art.add t k2 [ ("ir", "2") ];
  (* Touch k1 so k2 becomes the least recently used... *)
  check_bool "k1 resident" true (Art.find t k1 <> None);
  Art.add t k3 [ ("ir", "3") ];
  (* ...and the third insertion evicts exactly it. *)
  check_bool "k2 evicted" true (Art.find t k2 = None);
  check_bool "k1 survives" true (Art.find t k1 <> None);
  check_bool "k3 survives" true (Art.find t k3 <> None);
  let sn = Art.snapshot t in
  check_int "resident entries" 2 sn.Art.sn_entries;
  check_int "one eviction" 1 sn.Art.sn_evictions;
  check_bool "cap must be positive" true
    (match Art.create ~cap:0 () with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_artifacts_disk_eviction () =
  let dir = temp_dir "hlod-art-cap" in
  let t = Art.create ~dir ~cap:2 () in
  let key canon = Art.key ~modules:sample_modules ~options_canon:canon in
  let k1 = key "one" and k2 = key "two" and k3 = key "three" in
  let path k = Filename.concat dir (k ^ ".hart") in
  Art.add t k1 [ ("ir", "1") ];
  Art.add t k2 [ ("ir", "2") ];
  (* Age k1 far below k2, then overflow the tier. *)
  Unix.utimes (path k1) 1000.0 1000.0;
  Art.add t k3 [ ("ir", "3") ];
  check_bool "oldest artifact file evicted" false (Sys.file_exists (path k1));
  check_bool "newer artifact kept" true (Sys.file_exists (path k2));
  check_bool "just-written artifact kept" true (Sys.file_exists (path k3));
  check_int "disk eviction counted" 1 (Art.snapshot t).Art.sn_disk_evictions;
  (* A disk hit refreshes the file's timestamp so the LRU sees it. *)
  Unix.utimes (path k2) 1000.0 1000.0;
  let t2 = Art.create ~dir ~cap:2 () in
  check_bool "disk hit" true (Art.find t2 k2 <> None);
  check_bool "hit refreshed the mtime" true
    ((Unix.stat (path k2)).Unix.st_mtime > 1000.0)

(* ------------------------------------------------------------------ *)
(* The compile service.                                                *)

module S = Serve.Service

let service_config ?artifact_dir ?(max_frame = P.default_max_frame) () =
  { S.jobs = 1; server_budget = 1.0e9; request_budget = 1.0e9;
    queue_limit = 16; artifact_dir; artifact_cap = None; summary_cache = None;
    max_frame }

let compile_req ?(modules = sample_modules) options =
  P.Compile { modules; options }

(* The in-process compile: the shared pipeline `hloc` runs, with a
   collector installed as `hloc` installs one for --dump-journal — the
   reference the daemon must match byte for byte. *)
let in_process modules (o : P.compile_options) =
  Telemetry.Collector.install (Telemetry.Collector.create ());
  Fun.protect ~finally:Telemetry.Collector.uninstall (fun () ->
      Serve.Pipeline.compile o modules)

type compiled = {
  outputs : (string * string) list;
  cache : string;
  key : string;
}

let expect_compiled = function
  | P.Compiled { outputs; cache; key; _ } -> { outputs; cache; key }
  | P.Failed { reason; _ } -> Alcotest.failf "compile failed: %s" reason
  | P.Rejected r -> Alcotest.failf "rejected: %s" r.P.rj_reason
  | _ -> Alcotest.fail "unexpected response"

let show_outputs outputs =
  String.concat ";" (List.map (fun (ch, text) ->
      Printf.sprintf "%s:%d" ch (String.length text)) outputs)

let check_outputs msg expected got =
  check_string (msg ^ " (shape)") (show_outputs expected) (show_outputs got);
  List.iter2
    (fun (ch, etext) (_, gtext) -> check_string (msg ^ " " ^ ch) etext gtext)
    expected got

let test_service_matches_inline () =
  let svc = S.create (service_config ()) in
  let resp = S.handle svc (compile_req full_options) in
  let c = expect_compiled resp in
  check_string "first compile is a miss" "miss" c.cache;
  check_outputs "service = inline pipeline"
    (in_process sample_modules full_options)
    c.outputs

let test_service_cache_and_selection () =
  let svc = S.create (service_config ()) in
  let c1 = expect_compiled (S.handle svc (compile_req full_options)) in
  check_string "miss" "miss" c1.cache;
  let c2 = expect_compiled (S.handle svc (compile_req full_options)) in
  check_string "identical request hits" "hit" c2.cache;
  check_string "same key" c1.key c2.key;
  check_bool "identical bytes" true (c1.outputs = c2.outputs);
  (* Selection flags don't change the key — a quieter request for the
     same compile is served from the same artifact, fewer pieces. *)
  let quiet =
    { full_options with
      P.co_stats = false; co_dump_ir = false; co_dump_journal = false }
  in
  let c3 = expect_compiled (S.handle svc (compile_req quiet)) in
  check_string "selection flags share the artifact" c1.key c3.key;
  check_string "quiet request still a hit" "hit" c3.cache;
  check_string "only diag and run output remain" "diag;run_output"
    (String.concat ";" (List.map fst c3.outputs));
  check_bool "quiet outputs are a sub-sequence" true
    (List.for_all (fun p -> List.mem p c1.outputs) c3.outputs);
  (* A real option change recompiles under a different key. *)
  let other =
    { full_options with
      P.co_config = Policy.with_scope Policy.default Policy.Base }
  in
  let c4 = expect_compiled (S.handle svc (compile_req other)) in
  check_bool "scope changes the key" true (c4.key <> c1.key);
  check_string "and misses" "miss" c4.cache

(* A policy rides the request and lands in the cache key: tuned and
   default compiles of the same sources never alias, equal policies
   hit, and the tuned knobs really are applied. *)
let test_service_policy () =
  let svc = S.create (service_config ()) in
  let default = expect_compiled (S.handle svc (compile_req full_options)) in
  let tuned =
    { full_options with
      P.co_config =
        { Policy.default with Policy.budget_percent = 15.0; pass_limit = 1 } }
  in
  let c1 = expect_compiled (S.handle svc (compile_req tuned)) in
  check_bool "policy changes the key" true (c1.key <> default.key);
  check_string "tuned compile is a miss" "miss" c1.cache;
  let c2 = expect_compiled (S.handle svc (compile_req tuned)) in
  check_string "same policy hits" "hit" c2.cache;
  check_bool "identical bytes" true (c1.outputs = c2.outputs);
  check_outputs "tuned service = tuned inline pipeline"
    (in_process sample_modules tuned)
    c1.outputs

let compile_json options =
  J.Assoc
    [ ("op", J.String "compile");
      ( "modules",
        J.List
          [ J.Assoc
              [ ("name", J.String "m");
                ("source", J.String "func main() { return 0; }") ] ] );
      ("options", J.Assoc options) ]

let policy_text = J.String (Policy.to_string Policy.default)

(* The wire is strict: the policy text is required and must decode, and
   every other option is a known key of the right type.  Before the
   knob table a stale ["budget"] field or a ["passes"] of 2.7 was
   silently coerced; now each is a bad request. *)
let test_strict_wire () =
  let rejects what options =
    match P.request_of_json (compile_json options) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s must not decode" what
  in
  rejects "missing policy" [];
  rejects "garbage policy" [ ("policy", J.String "nonsense") ];
  rejects "ill-typed policy" [ ("policy", J.Int 3) ];
  rejects "pre-change budget field"
    [ ("policy", policy_text); ("budget", J.String "x") ];
  rejects "pre-change passes field"
    [ ("policy", policy_text); ("passes", J.Float 2.7) ];
  rejects "unknown key" [ ("policy", policy_text); ("warp", J.Bool true) ];
  rejects "ill-typed switch"
    [ ("policy", policy_text); ("max_operations", J.Int 3) ];
  rejects "bad switch value"
    [ ("policy", policy_text); ("scope", J.String "everywhere") ];
  rejects "ill-typed output flag"
    [ ("policy", policy_text); ("stats", J.String "yes") ];
  rejects "unknown runner"
    [ ("policy", policy_text); ("runner", J.String "jit") ];
  (* Over a socket the decode error is answered, structurally, with a
     bad_request. *)
  let path = unique "strict" in
  Out_channel.with_open_bin path (fun oc ->
      P.write_frame oc
        (J.to_string
           (compile_json [ ("policy", policy_text); ("budget", J.Int 5) ])));
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  match In_channel.with_open_bin path (fun ic -> P.read_request ic) with
  | Error (P.Malformed _) -> ()
  | _ -> Alcotest.fail "a stale budget field must be a malformed request"

(* The inline mode rides the policy text: a text without the optional
   mode keys (an old policy) decodes to "whole", an unknown mode is
   rejected at decode time, and whole and region compiles of the same
   sources never alias. *)
let test_service_inline_mode () =
  let old_text =
    String.concat "\n"
      (List.filter
         (fun line ->
           not
             (String.starts_with ~prefix:"inline_mode" line
             || String.starts_with ~prefix:"region_cold" line))
         (String.split_on_char '\n' (Policy.to_string Policy.default)))
  in
  (match P.request_of_json (compile_json [ ("policy", J.String old_text) ]) with
  | Ok (P.Compile { options; _ }) ->
    check_bool "old policy text is whole" true
      (options.P.co_config.Policy.inline_mode = Policy.Whole)
  | Ok _ -> Alcotest.fail "unexpected request"
  | Error msg -> Alcotest.fail msg);
  (match
     P.request_of_json
       (compile_json [ ("policy", J.String (old_text ^ "inline_mode eager\n")) ])
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown inline mode must not decode");
  let region_opts =
    { full_options with
      P.co_config = { Policy.default with Policy.inline_mode = Policy.Region } }
  in
  (match
     P.request_of_json
       (P.request_to_json
          (P.Compile { modules = sample_modules; options = region_opts }))
   with
  | Ok (P.Compile { options; _ }) ->
    check_bool "region round-trips" true
      (options.P.co_config.Policy.inline_mode = Policy.Region)
  | _ -> Alcotest.fail "region request must decode");
  let svc = S.create (service_config ()) in
  let whole = expect_compiled (S.handle svc (compile_req full_options)) in
  let region = expect_compiled (S.handle svc (compile_req region_opts)) in
  check_bool "mode changes the key" true (region.key <> whole.key);
  check_string "region compile is a miss" "miss" region.cache;
  let again = expect_compiled (S.handle svc (compile_req region_opts)) in
  check_string "same mode hits" "hit" again.cache

let test_service_failure_parity () =
  let svc = S.create (service_config ()) in
  let bad = [ ("main", "func main( { return }") ] in
  (match S.handle svc (compile_req ~modules:bad full_options) with
  | P.Failed { kind; reason; outputs } ->
    check_string "kind" "compile_error" kind;
    check_string "reason as hloc prints it" "compilation failed" reason;
    (match outputs with
    | [ ("diag", text) ] ->
      check_bool "diagnostics captured" true (String.length text > 0)
    | _ -> Alcotest.fail "expected only the diag piece")
  | _ -> Alcotest.fail "expected Failed");
  (* Failures are not cached: a corrected module under the same name
     compiles fine, and re-sending the bad one still fails. *)
  match S.handle svc (compile_req ~modules:bad full_options) with
  | P.Failed _ -> ()
  | _ -> Alcotest.fail "still Failed on retry"

(* A run-time trap: the daemon's failure must carry the in-process
   reason and exactly the pieces this client selected before the trap
   — not the IR and journal of the superset it computed.  Base scope
   skips training, so the trap fires in the run, after the report. *)
let test_service_trap_parity () =
  let trapping =
    [ ("main", "func main() { print_int(7); abort(); return 0; }") ]
  in
  let o =
    { P.default_options with
      P.co_config = Policy.with_scope Policy.default Policy.Base;
      co_runner = P.Run_interp; co_stats = true }
  in
  let reason, outputs =
    match in_process trapping o with
    | _ -> Alcotest.fail "the program must trap"
    | exception Serve.Pipeline.Failed { kind; reason; outputs } ->
      check_string "in-process kind" "trap" kind;
      (reason, outputs)
  in
  check_string "trapped in the run, after the report" "diag;report"
    (String.concat ";" (List.map fst outputs));
  let svc = S.create (service_config ()) in
  match S.handle svc (compile_req ~modules:trapping o) with
  | P.Failed f ->
    check_string "kind" "trap" f.kind;
    check_string "reason" reason f.reason;
    check_outputs "pieces before the trap" outputs f.outputs
  | _ -> Alcotest.fail "expected Failed"

let test_service_admission_reject () =
  let cfg = { (service_config ()) with S.request_budget = 1.0 } in
  let svc = S.create cfg in
  match S.handle svc (compile_req full_options) with
  | P.Rejected r ->
    check_string "structured reason" "request_over_budget" r.P.rj_kind;
    check_bool "cost reported" true (r.P.rj_cost > r.P.rj_limit)
  | _ -> Alcotest.fail "tiny request budget must reject"

let test_service_stop_rejects () =
  let svc = S.create (service_config ()) in
  S.stop svc;
  S.drain svc;
  (match S.handle svc (compile_req full_options) with
  | P.Rejected r -> check_string "shutting down" "shutting_down" r.P.rj_kind
  | _ -> Alcotest.fail "stopped service must reject compiles");
  (* Stats and ping still answer during shutdown. *)
  match S.handle svc P.Ping with
  | P.Pong -> ()
  | _ -> Alcotest.fail "ping must still answer"

let test_service_disk_artifacts () =
  let dir = temp_dir "hlod-svc-art" in
  let svc1 = S.create (service_config ~artifact_dir:dir ()) in
  let c1 = expect_compiled (S.handle svc1 (compile_req full_options)) in
  (* A fresh service (daemon restart) serves the same request from
     disk, byte-identical, without compiling. *)
  let svc2 = S.create (service_config ~artifact_dir:dir ()) in
  let c2 = expect_compiled (S.handle svc2 (compile_req full_options)) in
  check_string "served from disk" "disk" c2.cache;
  check_bool "bytes survive the restart" true (c1.outputs = c2.outputs)

(* Every benchmark in the suite, served by the daemon service, must
   produce exactly the in-process pipeline's bytes.  [--stats
   --dump-ir --dump-journal] covers the report, the IR and the
   decision journal — the full bit-identity contract. *)
let test_service_identity_all_workloads () =
  let svc = S.create (service_config ()) in
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      let config_src =
        Printf.sprintf "public global input_size = %d;\n" b.b_train_size
      in
      let modules = ("config", config_src) :: b.b_sources in
      let c = expect_compiled (S.handle svc (compile_req ~modules full_options)) in
      check_outputs (b.b_name ^ " daemon = in-process")
        (in_process modules full_options)
        c.outputs)
    Workloads.Suite.all

(* ------------------------------------------------------------------ *)
(* The socket server.                                                  *)

module Server = Serve.Server
module Client = Serve.Client

let with_server ?(config = service_config ()) f =
  let socket = unique "hlod-test" ^ ".sock" in
  let server = Server.start ~socket config in
  Fun.protect
    ~finally:(fun () -> Server.stop server)
    (fun () -> f server socket)

let roundtrip_ok client req =
  match Client.roundtrip client req with
  | Ok resp -> resp
  | Error msg -> Alcotest.fail msg

let with_client socket f =
  match Client.connect socket with
  | Error msg -> Alcotest.fail msg
  | Ok client ->
    Fun.protect ~finally:(fun () -> Client.close client) (fun () -> f client)

let stats_int path1 path2 json =
  match Option.bind (J.member path1 json) (J.member path2) with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "stats field %s.%s missing" path1 path2

let server_stats socket =
  with_client socket @@ fun client ->
  match roundtrip_ok client P.Stats with
  | P.Stats_reply json -> json
  | _ -> Alcotest.fail "expected Stats_reply"

let test_socket_two_clients_one_compile () =
  with_server @@ fun _server socket ->
  check_bool "probe finds the daemon" true (Client.probe socket);
  let c1 =
    with_client socket @@ fun client ->
    expect_compiled (roundtrip_ok client (compile_req full_options))
  in
  check_string "first client compiles" "miss" c1.cache;
  let c2 =
    with_client socket @@ fun client ->
    expect_compiled (roundtrip_ok client (compile_req full_options))
  in
  check_string "second client is served from cache" "hit" c2.cache;
  check_bool "bit-identical across clients" true (c1.outputs = c2.outputs);
  let stats = server_stats socket in
  check_int "exactly one compilation in the artifact store" 1
    (stats_int "artifacts" "insertions" stats);
  check_int "cache hits consume no admission capacity" 1
    (stats_int "admission" "admitted" stats)

let test_socket_malformed_frame_keeps_serving () =
  with_server @@ fun _server socket ->
  (* Raw connection: send garbage where a frame should be. *)
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc "this is not a frame\n";
  flush oc;
  (match P.read_response ic with
  | Ok (P.Failed { kind = "bad_request"; _ }) -> ()
  | Ok _ -> Alcotest.fail "expected a bad_request failure"
  | Error e -> Alcotest.failf "expected a reply, got %s" (P.frame_error_to_string e));
  (try Unix.close fd with _ -> ());
  (* The server must still serve. *)
  check_bool "server survives garbage" true (Client.probe socket)

let test_socket_oversized_frame_keeps_serving () =
  let config = { (service_config ()) with S.max_frame = 1024 } in
  with_server ~config @@ fun _server socket ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let oc = Unix.out_channel_of_descr fd in
  let ic = Unix.in_channel_of_descr fd in
  output_string oc "hlod1 1000000\n";
  flush oc;
  (match P.read_response ic with
  | Ok (P.Failed { kind = "bad_request"; reason; _ }) ->
    check_bool "reason mentions the limit" true
      (String.length reason > 0)
  | _ -> Alcotest.fail "expected a bad_request failure");
  (try Unix.close fd with _ -> ());
  check_bool "server survives an oversized announcement" true
    (Client.probe socket)

let test_socket_disconnect_mid_request_keeps_serving () =
  with_server @@ fun _server socket ->
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  let oc = Unix.out_channel_of_descr fd in
  (* Announce a 100-byte payload, deliver 10, vanish. *)
  output_string oc "hlod1 100\nonly this.";
  flush oc;
  Unix.close fd;
  Thread.delay 0.05;
  check_bool "server survives a mid-request disconnect" true
    (Client.probe socket);
  let c =
    with_client socket @@ fun client ->
    expect_compiled (roundtrip_ok client (compile_req full_options))
  in
  check_string "and still compiles" "miss" c.cache

let test_socket_graceful_shutdown_drains () =
  with_server @@ fun server socket ->
  (* Client A starts a compile; once it is admitted, client B asks for
     shutdown.  A's response must still arrive complete. *)
  let result_a = ref None in
  let ta =
    Thread.create
      (fun () ->
        with_client socket @@ fun client ->
        result_a := Some (Client.roundtrip client (compile_req full_options)))
      ()
  in
  let rec wait_admitted n =
    if n = 0 then Alcotest.fail "client A never admitted"
    else if
      stats_int "admission" "admitted"
        (S.stats_json (Server.service server))
      < 1
    then (
      Thread.delay 0.005;
      wait_admitted (n - 1))
  in
  wait_admitted 1000;
  (with_client socket @@ fun client ->
   match roundtrip_ok client P.Shutdown with
   | P.Shutting_down -> ()
   | _ -> Alcotest.fail "expected Shutting_down");
  Thread.join ta;
  (match !result_a with
  | Some (Ok (P.Compiled _)) -> ()
  | Some (Ok (P.Rejected r)) ->
    Alcotest.failf "admitted request was rejected: %s" r.P.rj_reason
  | Some (Ok _) -> Alcotest.fail "unexpected response for client A"
  | Some (Error msg) -> Alcotest.failf "client A lost its response: %s" msg
  | None -> Alcotest.fail "client A never finished");
  Server.wait server;
  check_bool "listener is closed after the drain" false (Client.probe socket)

(* ------------------------------------------------------------------ *)
(* Cross-request caches under concurrency.                             *)

let compiled_sample () =
  fst
    (Minic.Compile.compile_program ~main:"main"
       (List.map
          (fun (name, text) -> Minic.Compile.source ~module_name:name text)
          sample_modules))

let test_summary_cache_concurrent () =
  Hlo.Summary_cache.clear ();
  let program = compiled_sample () in
  let routines = Array.of_list program.U.p_routines in
  let expected =
    Array.map (fun r -> Ucode.Size.routine_size r) routines
  in
  let worker () =
    for _ = 1 to 25 do
      Array.iteri
        (fun i r ->
          if Hlo.Summary_cache.size r <> expected.(i) then
            failwith "summary mismatch")
        routines
    done;
    true
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  let ok = List.for_all Domain.join domains in
  check_bool "all domains saw correct summaries" true ok;
  let st = Hlo.Summary_cache.stats () in
  check_bool "cache actually hit" true (st.Hlo.Summary_cache.hits > 0);
  check_bool "entries bounded by distinct bodies" true
    (st.Hlo.Summary_cache.entries <= Array.length routines)

let find_routine program name =
  match U.find_routine program name with
  | Some r -> r
  | None -> Alcotest.failf "no routine %s" name

let clone_spec =
  { Hlo.Clone_spec.cs_callee = "poly";
    cs_bindings = [ (0, Hlo.Clone_spec.Bconst 0L) ] }

(* Clone_db instantiation must be indistinguishable from direct
   materialization — same routine, same site map — for any fresh_site
   sequence. *)
let test_clone_db_matches_direct () =
  Hlo.Clone_db.clear ();
  let program = compiled_sample () in
  let callee = find_routine program "poly" in
  let counter_from start =
    let n = ref start in
    fun () ->
      incr n;
      !n
  in
  let direct =
    Hlo.Clone_spec.make_clone ~callee ~clone_name:"poly$c1"
      ~fresh_site:(counter_from 1000) clone_spec
  in
  let via_db_cold =
    Hlo.Clone_db.make_clone ~callee ~clone_name:"poly$c1"
      ~fresh_site:(counter_from 1000) clone_spec
  in
  check_bool "cold instantiation = direct" true (direct = via_db_cold);
  let via_db_warm =
    Hlo.Clone_db.make_clone ~callee ~clone_name:"poly$c1"
      ~fresh_site:(counter_from 1000) clone_spec
  in
  check_bool "warm instantiation = direct" true (direct = via_db_warm);
  let st = Hlo.Clone_db.stats () in
  check_bool "second call hit the template" true (st.Hlo.Clone_db.hits >= 1);
  (* Different name / site sequence: still exact. *)
  let direct2 =
    Hlo.Clone_spec.make_clone ~callee ~clone_name:"poly$c2"
      ~fresh_site:(counter_from 7) clone_spec
  in
  let via_db2 =
    Hlo.Clone_db.make_clone ~callee ~clone_name:"poly$c2"
      ~fresh_site:(counter_from 7) clone_spec
  in
  check_bool "renamed instantiation = direct" true (direct2 = via_db2)

let test_clone_db_concurrent () =
  Hlo.Clone_db.clear ();
  let program = compiled_sample () in
  let callee = find_routine program "poly" in
  let make start =
    let n = ref start in
    Hlo.Clone_db.make_clone ~callee ~clone_name:"poly$cc"
      ~fresh_site:(fun () ->
        incr n;
        !n)
      clone_spec
  in
  let reference = make 500 in
  let worker () =
    for _ = 1 to 50 do
      if make 500 <> reference then failwith "clone drift"
    done;
    true
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  check_bool "concurrent instantiations all identical" true
    (List.for_all Domain.join domains)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "serve"
    [ ("protocol",
       [ Alcotest.test_case "frame round-trip" `Quick test_frame_roundtrip;
         Alcotest.test_case "frame failures are values" `Quick
           test_frame_failures;
         Alcotest.test_case "message JSON round-trip" `Quick
           test_message_roundtrip;
         Alcotest.test_case "strict option decoding" `Quick test_strict_wire ]);
      ("admission",
       [ Alcotest.test_case "budgets" `Quick test_admission_budgets;
         Alcotest.test_case "FIFO queue" `Quick test_admission_fifo_queue;
         Alcotest.test_case "queue_full and close" `Quick
           test_admission_queue_full_and_close;
         Alcotest.test_case "quadratic cost model" `Quick
           test_admission_cost_model ]);
      ("artifacts",
       [ Alcotest.test_case "memory store" `Quick test_artifacts_memory;
         Alcotest.test_case "memory LRU eviction" `Quick
           test_artifacts_memory_lru;
         Alcotest.test_case "disk eviction" `Quick
           test_artifacts_disk_eviction;
         Alcotest.test_case "disk store and corruption" `Quick
           test_artifacts_disk_and_corruption ]);
      ("service",
       [ Alcotest.test_case "matches the in-process pipeline" `Quick
           test_service_matches_inline;
         Alcotest.test_case "cache and piece selection" `Quick
           test_service_cache_and_selection;
         Alcotest.test_case "policy in the cache key" `Quick
           test_service_policy;
         Alcotest.test_case "inline mode in the cache key" `Quick
           test_service_inline_mode;
         Alcotest.test_case "failure parity" `Quick
           test_service_failure_parity;
         Alcotest.test_case "admission reject" `Quick
           test_service_admission_reject;
         Alcotest.test_case "stop rejects compiles" `Quick
           test_service_stop_rejects;
         Alcotest.test_case "disk artifacts survive restart" `Quick
           test_service_disk_artifacts;
         Alcotest.test_case "bit-identity on all 14 workloads" `Slow
           test_service_identity_all_workloads;
         Alcotest.test_case "trap parity" `Quick test_service_trap_parity ]);
      ("socket",
       [ Alcotest.test_case "two clients, one compile" `Quick
           test_socket_two_clients_one_compile;
         Alcotest.test_case "malformed frame keeps serving" `Quick
           test_socket_malformed_frame_keeps_serving;
         Alcotest.test_case "oversized frame keeps serving" `Quick
           test_socket_oversized_frame_keeps_serving;
         Alcotest.test_case "mid-request disconnect keeps serving" `Quick
           test_socket_disconnect_mid_request_keeps_serving;
         Alcotest.test_case "graceful shutdown drains" `Quick
           test_socket_graceful_shutdown_drains ]);
      ("caches",
       [ Alcotest.test_case "summary cache across domains" `Quick
           test_summary_cache_concurrent;
         Alcotest.test_case "clone db = direct materialization" `Quick
           test_clone_db_matches_direct;
         Alcotest.test_case "clone db across domains" `Quick
           test_clone_db_concurrent ]) ]
