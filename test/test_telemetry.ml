(* Tests for the telemetry subsystem: span nesting and timing
   monotonicity, counter arithmetic, JSONL / Chrome-trace round-trips
   (the emitted JSON is parsed back), and the driver integration —
   the decision journal must agree with the HLO report's counters. *)

module T = Telemetry.Collector
module TE = Telemetry.Event
module J = Telemetry.Json

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 0.0001))

(* Run [f] with a fresh ambient collector; always uninstall. *)
let with_collector f =
  let c = T.create () in
  T.install c;
  Fun.protect ~finally:T.uninstall (fun () -> f c)

let span_end (s : TE.span) = s.TE.sp_start_us +. s.TE.sp_dur_us

(* ------------------------------------------------------------------ *)
(* Spans.                                                              *)

let test_span_nesting () =
  let c =
    with_collector (fun c ->
        T.with_span "outer" (fun () ->
            T.with_span "first" (fun () -> ());
            T.with_span "second"
              ~attrs:[ ("k", TE.Str "v") ]
              (fun () -> T.annotate "extra" (TE.Int 7)));
        c)
  in
  let spans = T.spans c in
  check_int "three spans" 3 (List.length spans);
  (* Spans are recorded at completion: first, second, outer. *)
  let first = List.nth spans 0 in
  let second = List.nth spans 1 in
  let outer = List.nth spans 2 in
  check_string "order: first" "first" first.TE.sp_name;
  check_string "order: second" "second" second.TE.sp_name;
  check_string "order: outer" "outer" outer.TE.sp_name;
  check_int "outer depth" 0 outer.TE.sp_depth;
  check_int "first depth" 1 first.TE.sp_depth;
  check_int "second depth" 1 second.TE.sp_depth;
  (* Timing monotonicity: children are contained in the parent, and
     the second child starts after the first ends. *)
  List.iter
    (fun (s : TE.span) ->
      check_bool (s.TE.sp_name ^ " nonneg duration") true (s.TE.sp_dur_us >= 0.0))
    spans;
  check_bool "first within outer" true
    (first.TE.sp_start_us >= outer.TE.sp_start_us
    && span_end first <= span_end outer);
  check_bool "second within outer" true
    (second.TE.sp_start_us >= outer.TE.sp_start_us
    && span_end second <= span_end outer);
  check_bool "siblings ordered" true (second.TE.sp_start_us >= span_end first);
  (* Attributes: declared ones and ones annotated mid-span. *)
  check_bool "declared attr" true
    (List.mem_assoc "k" second.TE.sp_attrs);
  check_bool "annotated attr" true
    (List.mem_assoc "extra" second.TE.sp_attrs)

let test_span_survives_exception () =
  let c =
    with_collector (fun c ->
        (try T.with_span "raises" (fun () -> failwith "boom")
         with Failure _ -> ());
        c)
  in
  check_int "span recorded despite raise" 1 (List.length (T.spans c))

let test_clock_monotonic () =
  let prev = ref (Telemetry.Clock.now_us ()) in
  for _ = 1 to 1000 do
    let t = Telemetry.Clock.now_us () in
    check_bool "strictly increasing" true (t > !prev);
    prev := t
  done

(* ------------------------------------------------------------------ *)
(* Counters.                                                           *)

let test_counters () =
  let t = Telemetry.Counters.create () in
  check_float "untouched is zero" 0.0 (Telemetry.Counters.get t "a");
  Telemetry.Counters.incr t "a";
  Telemetry.Counters.incr t "a";
  Telemetry.Counters.add t "a" 3.5;
  check_float "accumulates" 5.5 (Telemetry.Counters.get t "a");
  Telemetry.Counters.set t "g" 42.0;
  Telemetry.Counters.set t "g" 17.0;
  check_float "gauge overwrites" 17.0 (Telemetry.Counters.get t "g");
  check_bool "sorted listing" true
    (Telemetry.Counters.to_sorted_list t = [ ("a", 5.5); ("g", 17.0) ])

let test_ambient_counters () =
  let c =
    with_collector (fun c ->
        T.count "events" 2;
        T.count "events" 3;
        T.gauge "level" 9.0;
        c)
  in
  check_float "ambient count" 5.0 (Telemetry.Counters.get (T.counters c) "events");
  check_float "ambient gauge" 9.0 (Telemetry.Counters.get (T.counters c) "level");
  (* With no collector installed, everything is a no-op. *)
  T.count "ignored" 1;
  T.gauge "ignored" 1.0;
  T.with_span "ignored" (fun () -> ());
  check_float "no bleed-through" 0.0
    (Telemetry.Counters.get (T.counters c) "ignored")

(* ------------------------------------------------------------------ *)
(* JSON.                                                               *)

let test_json_roundtrip () =
  let doc =
    J.Assoc
      [ ("s", J.String "a \"quoted\"\n\ttab"); ("i", J.Int (-42));
        ("x", J.Float 3.25); ("b", J.Bool true); ("n", J.Null);
        ("l", J.List [ J.Int 1; J.String "two"; J.Assoc [] ]) ]
  in
  match J.of_string (J.to_string doc) with
  | Error e -> Alcotest.fail e
  | Ok parsed -> check_bool "round-trips" true (parsed = doc)

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.fail ("accepted: " ^ s)
      | Error _ -> ())
    [ "{"; "[1,"; "\"open"; "{\"a\" 1}"; "[1] extra"; "" ]

(* ------------------------------------------------------------------ *)
(* Exporters, on a collector with known activity.                      *)

let make_active_collector () =
  with_collector (fun c ->
      T.with_span "root" (fun () ->
          T.with_span "child" (fun () -> T.count "work.items" 3);
          T.decision ~kind:TE.Inline ~verdict:TE.Accepted ~context:"caller"
            ~site:4 ~score:1.5 ~pass:0 "callee";
          T.decision ~kind:TE.Inline ~verdict:(TE.Rejected "budget")
            ~context:"caller" ~site:5 ~score:0.5 ~pass:0 "callee2");
      c)

let parse_exn s =
  match J.of_string s with Ok v -> v | Error e -> Alcotest.fail e

let member_exn name j =
  match J.member name j with
  | Some v -> v
  | None -> Alcotest.fail ("missing member " ^ name)

let test_jsonl_roundtrip () =
  let c = make_active_collector () in
  let lines =
    String.split_on_char '\n' (Telemetry.Export.jsonl c)
    |> List.filter (fun l -> l <> "")
  in
  (* 2 spans + 2 decisions + 1 counter. *)
  check_int "line count" 5 (List.length lines);
  let parsed = List.map parse_exn lines in
  let typed t =
    List.filter
      (fun j -> J.member "type" j = Some (J.String t))
      parsed
  in
  check_int "span lines" 2 (List.length (typed "span"));
  check_int "decision lines" 2 (List.length (typed "decision"));
  check_int "counter lines" 1 (List.length (typed "counter"));
  (* Spot-check one decision line's fields. *)
  let rejected =
    List.find
      (fun j -> J.member "verdict" j = Some (J.String "rejected"))
      (typed "decision")
  in
  check_bool "reason" true (member_exn "reason" rejected = J.String "budget");
  check_bool "kind" true (member_exn "kind" rejected = J.String "inline");
  check_bool "subject" true (member_exn "subject" rejected = J.String "callee2");
  (match J.to_number (member_exn "score" rejected) with
  | Some x -> check_float "score" 0.5 x
  | None -> Alcotest.fail "score not a number");
  (* And the counter line. *)
  let counter = List.hd (typed "counter") in
  check_bool "counter name" true
    (member_exn "name" counter = J.String "work.items");
  match J.to_number (member_exn "value" counter) with
  | Some x -> check_float "counter value" 3.0 x
  | None -> Alcotest.fail "counter value not a number"

let test_chrome_roundtrip () =
  let c = make_active_collector () in
  let trace = parse_exn (Telemetry.Export.chrome_string c) in
  let events =
    match J.to_list_opt (member_exn "traceEvents" trace) with
    | Some l -> l
    | None -> Alcotest.fail "traceEvents not a list"
  in
  (* 2 spans (X) + 2 decisions (i) + 1 counter (C). *)
  check_int "event count" 5 (List.length events);
  let of_ph ph =
    List.filter (fun j -> J.member "ph" j = Some (J.String ph)) events
  in
  check_int "complete events" 2 (List.length (of_ph "X"));
  check_int "instant events" 2 (List.length (of_ph "i"));
  check_int "counter events" 1 (List.length (of_ph "C"));
  (* Nesting: the child's [ts, ts+dur] interval lies within root's. *)
  let interval j =
    match
      (J.to_number (member_exn "ts" j), J.to_number (member_exn "dur" j))
    with
    | Some ts, Some dur -> (ts, ts +. dur)
    | _ -> Alcotest.fail "bad ts/dur"
  in
  let find_span name =
    List.find (fun j -> J.member "name" j = Some (J.String name)) (of_ph "X")
  in
  let r0, r1 = interval (find_span "root") in
  let c0, c1 = interval (find_span "child") in
  check_bool "child nested in root" true (c0 >= r0 && c1 <= r1);
  (* Every event carries pid/tid so trace viewers group them. *)
  List.iter
    (fun j ->
      check_bool "has pid" true (J.member "pid" j <> None);
      check_bool "has ts" true (J.member "ts" j <> None))
    events

(* ------------------------------------------------------------------ *)
(* Concurrency: domains hammering one collector lose nothing.          *)

let test_concurrent_no_lost_events () =
  let domains = 4 and spans_per_domain = 200 in
  let c =
    with_collector (fun c ->
        let work d () =
          for i = 1 to spans_per_domain do
            T.with_span "worker.span"
              ~attrs:[ ("domain", TE.Int d) ]
              (fun () ->
                T.count "worker.items" 1;
                if i mod 50 = 0 then
                  T.decision ~kind:TE.Inline ~verdict:TE.Accepted
                    ~site:((d * 1000) + i) "concurrent")
          done
        in
        let spawned =
          List.init (domains - 1) (fun d -> Domain.spawn (work (d + 1)))
        in
        work 0 ();
        List.iter Domain.join spawned;
        c)
  in
  check_int "no span lost" (domains * spans_per_domain)
    (List.length (T.spans c));
  check_int "no decision lost"
    (domains * (spans_per_domain / 50))
    (List.length (T.decisions c));
  check_float "no count lost"
    (float_of_int (domains * spans_per_domain))
    (Telemetry.Counters.get (T.counters c) "worker.items");
  (* Every span closed on the domain that opened it, with a sane
     domain-local depth, and timestamps stayed strictly orderable. *)
  let spans = T.spans c in
  List.iter
    (fun (s : TE.span) ->
      check_int (s.TE.sp_name ^ " depth") 0 s.TE.sp_depth;
      check_bool "nonneg duration" true (s.TE.sp_dur_us >= 0.0);
      match List.assoc_opt "domain" s.TE.sp_attrs with
      | Some (TE.Int _) -> ()
      | _ -> Alcotest.fail "span lost its domain attribute")
    spans;
  let domains_seen =
    List.sort_uniq compare (List.map (fun (s : TE.span) -> s.TE.sp_domain) spans)
  in
  check_int "spans came from every domain" domains (List.length domains_seen)

let test_concurrent_chrome_roundtrip () =
  let domains = 4 and spans_per_domain = 50 in
  let c =
    with_collector (fun c ->
        let work d () =
          for _ = 1 to spans_per_domain do
            T.with_span "shard" ~attrs:[ ("d", TE.Int d) ] (fun () -> ())
          done
        in
        let spawned =
          List.init (domains - 1) (fun d -> Domain.spawn (work (d + 1)))
        in
        work 0 ();
        List.iter Domain.join spawned;
        c)
  in
  let trace = parse_exn (Telemetry.Export.chrome_string c) in
  let events =
    match J.to_list_opt (member_exn "traceEvents" trace) with
    | Some l -> l
    | None -> Alcotest.fail "traceEvents not a list"
  in
  check_int "all spans exported" (domains * spans_per_domain)
    (List.length events);
  (* Spans land on one track per domain (tid = domain id). *)
  let tids =
    List.sort_uniq compare
      (List.map
         (fun j ->
           match J.to_number (member_exn "tid" j) with
           | Some t -> int_of_float t
           | None -> Alcotest.fail "tid not a number")
         events)
  in
  check_int "one track per domain" domains (List.length tids)

(* ------------------------------------------------------------------ *)
(* Driver integration: the journal agrees with the report.             *)

let sources =
  [ ("util",
     "func square(x) { return x * x; }\n\
      func poly(mode, x) {\n\
      \  if (mode == 0) { return x + 1; }\n\
      \  return x * 2;\n\
      }\n");
    ("main",
     "func main() {\n\
      \  var s = 0;\n\
      \  for (var i = 0; i < 100; i = i + 1) {\n\
      \    s = s + square(i) + poly(0, i);\n\
      \  }\n\
      \  print_int(s);\n\
      \  return 0;\n\
      }\n") ]

let compile_suite () =
  fst
    (Minic.Compile.compile_program
       (List.map
          (fun (m, s) -> Minic.Compile.source ~module_name:m s)
          sources))

(* The optimizer counts routines, not names: a routine listed twice
   (as the driver's touched list does for one both the cloner and the
   inliner touched) counts once, a name no routine has counts not at
   all, and a memo hit counts as reused, not optimized. *)
let test_optimizer_counters () =
  let counted f =
    let c = T.create () in
    T.install c;
    let p = Fun.protect ~finally:T.uninstall f in
    let ctr name = Telemetry.Counters.get (T.counters c) name in
    (p, ctr "opt.routines_optimized", ctr "opt.routines_reused")
  in
  let memo = Opt.Pipeline.create_memo () in
  let p1, optimized, reused =
    counted (fun () -> Opt.Pipeline.optimize_program ~memo (compile_suite ()))
  in
  check_float "clean: every routine optimized" 3.0 optimized;
  check_float "clean: none reused" 0.0 reused;
  (* [main] rebuilt as an equal but new record: not the memo's. *)
  let p2 =
    { p1 with
      Ucode.Types.p_routines =
        List.map
          (fun (r : Ucode.Types.routine) ->
            if r.Ucode.Types.r_name = "main" then
              { r with Ucode.Types.r_name = "main" }
            else r)
          p1.Ucode.Types.p_routines }
  in
  let _, optimized, reused =
    counted (fun () ->
        Opt.Pipeline.optimize_selected ~memo p2
          [ "square"; "main"; "square"; "gone"; "main" ])
  in
  check_float "selected: main optimized once" 1.0 optimized;
  check_float "selected: square reused once" 1.0 reused

let test_driver_journal_matches_report () =
  let program = compile_suite () in
  let profile = (Interp.train program).Interp.profile in
  let c = T.create () in
  T.install c;
  let result =
    Fun.protect ~finally:T.uninstall (fun () ->
        Hlo.Driver.run ~profile program)
  in
  let report = result.Hlo.Driver.report in
  check_int "journal inlines = report.inlines"
    report.Hlo.Report.inlines
    (T.journal_count c ~kind:TE.Inline ~accepted:true);
  check_int "journal clone creations = report.clones_created"
    report.Hlo.Report.clones_created
    (T.journal_count c ~kind:TE.Clone_create ~accepted:true);
  check_int "journal clone replacements = report.clone_replacements"
    report.Hlo.Report.clone_replacements
    (T.journal_count c ~kind:TE.Clone_replace ~accepted:true);
  check_int "journal deletions = report.deletions"
    report.Hlo.Report.deletions
    (T.journal_count c ~kind:TE.Delete ~accepted:true);
  (* The counters mirror the journal. *)
  let ctr name = Telemetry.Counters.get (T.counters c) name in
  check_float "performed counter" (float_of_int report.Hlo.Report.inlines)
    (ctr "hlo.inline.performed");
  check_float "deletions counter" (float_of_int report.Hlo.Report.deletions)
    (ctr "hlo.deletions");
  (* The cloner lists the clonee it left unchanged as touched; the memo
     spares it a second optimization. *)
  check_bool "the memo reused a routine" true (ctr "opt.routines_reused" > 0.0);
  (* Something actually happened, and the stage spans are present and
     nested under hlo.run. *)
  check_bool "some inlining happened" true (report.Hlo.Report.inlines > 0);
  let spans = T.spans c in
  let find name =
    match List.find_opt (fun (s : TE.span) -> s.TE.sp_name = name) spans with
    | Some s -> s
    | None -> Alcotest.fail ("missing span " ^ name)
  in
  let run_span = find "hlo.run" in
  check_int "hlo.run at top level" 0 run_span.TE.sp_depth;
  List.iter
    (fun name ->
      let s = find name in
      check_bool (name ^ " inside hlo.run") true
        (s.TE.sp_start_us >= run_span.TE.sp_start_us
        && span_end s <= span_end run_span))
    [ "hlo.clean"; "hlo.pass"; "hlo.clone"; "hlo.inline"; "hlo.prune" ];
  (* hlo.clone / hlo.inline sit inside some hlo.pass span. *)
  let passes =
    List.filter (fun (s : TE.span) -> s.TE.sp_name = "hlo.pass") spans
  in
  check_int "one pass span per pass run"
    report.Hlo.Report.passes_run (List.length passes);
  List.iter
    (fun (s : TE.span) ->
      if s.TE.sp_name = "hlo.clone" || s.TE.sp_name = "hlo.inline" then
        check_bool (s.TE.sp_name ^ " inside a pass") true
          (List.exists
             (fun (p : TE.span) ->
               s.TE.sp_start_us >= p.TE.sp_start_us
               && span_end s <= span_end p)
             passes))
    spans

(* A compile with telemetry disabled gives the same bytes, but for an
   empty journal: the collector is pure observation.  Through the
   identity harness, on the sample program, the 14 workloads and random
   programs. *)
let test_telemetry_is_pure_observation () =
  Identity.check ~what:"sample program" [ Identity.telemetry_off ]
    (Identity.options Hlo.Config.default) sources

let test_pure_observation_workloads () =
  Identity.check_workloads [ Identity.telemetry_off ]
    (Identity.options Hlo.Config.default)

let prop_pure_observation =
  Identity.property ~count:25 ~name:"pure observation (random programs)"
    [ Identity.telemetry_off ]

(* Generous ceiling on the disabled fast path: a million no-op events
   must be effectively instant (they are one branch each). *)
let test_disabled_cost_guard () =
  check_bool "no ambient collector" false (T.enabled ());
  let t0 = Telemetry.Clock.now_us () in
  for _ = 1 to 1_000_000 do
    T.count "guard" 1
  done;
  let elapsed_us = Telemetry.Clock.now_us () -. t0 in
  check_bool
    (Printf.sprintf "1M disabled events in %.0fus (< 500ms)" elapsed_us)
    true
    (elapsed_us < 500_000.0)

let () =
  Alcotest.run "telemetry"
    [ ("spans",
       [ Alcotest.test_case "nesting and monotonicity" `Quick test_span_nesting;
         Alcotest.test_case "exception safety" `Quick
           test_span_survives_exception;
         Alcotest.test_case "clock monotonic" `Quick test_clock_monotonic ]);
      ("counters",
       [ Alcotest.test_case "arithmetic" `Quick test_counters;
         Alcotest.test_case "ambient" `Quick test_ambient_counters ]);
      ("json",
       [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
         Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage ]);
      ("export",
       [ Alcotest.test_case "jsonl round-trip" `Quick test_jsonl_roundtrip;
         Alcotest.test_case "chrome round-trip" `Quick test_chrome_roundtrip ]);
      ("concurrency",
       [ Alcotest.test_case "no lost events across domains" `Quick
           test_concurrent_no_lost_events;
         Alcotest.test_case "chrome round-trip under domains" `Quick
           test_concurrent_chrome_roundtrip ]);
      ("integration",
       [ Alcotest.test_case "journal matches report" `Quick
           test_driver_journal_matches_report;
         Alcotest.test_case "optimizer counters" `Quick
           test_optimizer_counters;
         Alcotest.test_case "pure observation" `Quick
           test_telemetry_is_pure_observation;
         Alcotest.test_case "disabled cost guard" `Quick
           test_disabled_cost_guard;
         Alcotest.test_case "pure observation on all 14 workloads" `Slow
           test_pure_observation_workloads;
         QCheck_alcotest.to_alcotest prop_pure_observation ]) ]
