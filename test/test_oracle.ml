(* Tests for the differential correctness subsystem (lib/oracle):

   - unit tests of the oracle's outcome-comparison policy, including
     the erasable-trap prefix rule and divergence asymmetry;
   - the metamorphic property: profile mutations are semantics-neutral;
   - fuzz-engine plumbing (bucket stability, combined-source round
     trip, run_case classification);
   - ddmin and statement splitting;
   - the oracle-gated measure step (Oracle.Evaluate);
   - chaos validation: each deliberately seeded miscompilation
     (Hlo.Chaos) must be caught by a short campaign over the corpus +
     generated programs, reduced to < 30 lines, and the reduced case
     must pass once the bug is disarmed. *)

let interp_config = Prog_gen.interp_config

(* ------------------------------------------------------------------ *)
(* Outcome comparison policy.                                          *)

let ob ?(exit = 0L) ?(out = "") ?(globals = []) () =
  { Oracle.ob_exit = exit; ob_output = out; ob_globals = globals }

let cls_of = function None -> "agree" | Some (cls, _) -> cls

let check_cls name expected ~pre ~post =
  Alcotest.(check string) name expected (cls_of (Oracle.compare_outcomes ~pre ~post))

let test_compare_finished () =
  let a = ob ~exit:3L ~out:"1\n2\n" ~globals:[ ("gs", [| 7L |]) ] () in
  check_cls "identical" "agree" ~pre:(Oracle.Finished a) ~post:(Oracle.Finished a);
  check_cls "exit differs" "exit"
    ~pre:(Oracle.Finished a)
    ~post:(Oracle.Finished (ob ~exit:4L ~out:"1\n2\n" ~globals:[ ("gs", [| 7L |]) ] ()));
  check_cls "output differs" "output"
    ~pre:(Oracle.Finished a)
    ~post:(Oracle.Finished (ob ~exit:3L ~out:"1\n" ~globals:[ ("gs", [| 7L |]) ] ()));
  check_cls "global differs" "globals:gs"
    ~pre:(Oracle.Finished a)
    ~post:(Oracle.Finished (ob ~exit:3L ~out:"1\n2\n" ~globals:[ ("gs", [| 8L |]) ] ()))

let test_compare_traps () =
  let at out = ob ~out () in
  let trap kind out = Oracle.Trapped { kind; partial = at out } in
  check_cls "same abort" "agree" ~pre:(trap "abort" "x\n") ~post:(trap "abort" "x\n");
  check_cls "call-borne kinds strict" "trap_kind"
    ~pre:(trap "abort" "") ~post:(trap "indirect_arity" "");
  check_cls "call-borne output strict" "trap_output"
    ~pre:(trap "abort" "1\n") ~post:(trap "abort" "1\n2\n");
  check_cls "finished vs abort" "trap_kind"
    ~pre:(Oracle.Finished (at "1\n")) ~post:(trap "abort" "1\n")

let test_compare_erasable () =
  let trap kind out = Oracle.Trapped { kind; partial = ob ~out () } in
  (* A dead division the optimizer deleted: post runs further.  Legal
     as long as pre's output is a prefix of post's. *)
  check_cls "div trap erased, longer run" "agree"
    ~pre:(trap "division_by_zero" "1\n")
    ~post:(Oracle.Finished (ob ~exit:9L ~out:"1\n2\n3\n" ()));
  check_cls "oob trap erased into later trap" "agree"
    ~pre:(trap "out_of_bounds" "1\n") ~post:(trap "abort" "1\n2\n");
  check_cls "erased trap may diverge" "agree"
    ~pre:(trap "division_by_zero" "1\n") ~post:(Oracle.Diverged "fuel");
  check_cls "but output up to the trap is pinned" "erasable_trap_output"
    ~pre:(trap "division_by_zero" "1\n2\n")
    ~post:(Oracle.Finished (ob ~out:"1\n3\n" ()));
  (* The rule is one-directional: a post-only erasable trap that cut
     output short is still a miscompilation. *)
  check_cls "introduced trap not erased" "trap_kind"
    ~pre:(Oracle.Finished (ob ~out:"1\n2\n" ()))
    ~post:(trap "division_by_zero" "1\n")

let test_compare_divergence () =
  let fin = Oracle.Finished (ob ~out:"1\n" ()) in
  check_cls "pre divergence agrees with anything" "agree"
    ~pre:(Oracle.Diverged "fuel") ~post:fin;
  check_cls "both diverged" "agree"
    ~pre:(Oracle.Diverged "fuel") ~post:(Oracle.Diverged "call_depth");
  check_cls "post-only divergence flagged" "introduced_divergence"
    ~pre:fin ~post:(Oracle.Diverged "fuel")

(* ------------------------------------------------------------------ *)
(* observe / check_transform on real programs.                         *)

let compile sources = fst (Minic.Compile.compile_program sources)

let src name text = Minic.Compile.source ~module_name:name text

let test_observe_classifies () =
  let finished =
    compile
      [ src "m" "public global gs; func main() { gs = 5; print_int(gs); return 2; }" ]
  in
  (match Oracle.observe ~config:interp_config finished with
  | Oracle.Finished o ->
    Alcotest.(check int64) "exit" 2L o.Oracle.ob_exit;
    Alcotest.(check string) "output" "5\n" o.Oracle.ob_output;
    Alcotest.(check bool) "gs recorded" true
      (List.exists (fun (_, cells) -> cells = [| 5L |]) o.Oracle.ob_globals)
  | other ->
    Alcotest.failf "expected Finished, got %s" (Oracle.outcome_to_string other));
  let trapping =
    compile [ src "m" "func main() { print_int(1); var d = 0; return 7 / d; }" ]
  in
  match Oracle.observe ~config:interp_config trapping with
  | Oracle.Trapped { kind = "division_by_zero"; partial } ->
    Alcotest.(check string) "partial output" "1\n" partial.Oracle.ob_output
  | other ->
    Alcotest.failf "expected division trap, got %s" (Oracle.outcome_to_string other)

let test_check_transform_clean () =
  let p =
    compile
      [ src "lib" "func twice(x) { return x + x; }";
        src "app"
          "func main() { var s = 0; for (var i = 0; i < 10; i = i + 1) { s = s + twice(i); } print_int(s); return 0; }" ]
  in
  let res = Oracle.check_transform ~interp_config Oracle.default_check p in
  (match res.Oracle.tr_verdict with
  | None -> ()
  | Some (cls, detail) -> Alcotest.failf "unexpected verdict [%s]: %s" cls detail);
  match res.Oracle.tr_pre with
  | Oracle.Finished o -> Alcotest.(check string) "output" "90\n" o.Oracle.ob_output
  | other -> Alcotest.failf "expected Finished, got %s" (Oracle.outcome_to_string other)

(* The metamorphic property: the profile only steers heuristics, so
   any mutation of it must leave observable behavior intact. *)
let prop_mutations_neutral =
  let mutations =
    [ Oracle.Scale 0.5; Oracle.Scale 1000.0; Oracle.Zero; Oracle.Stale 42 ]
  in
  QCheck.Test.make ~count:12 ~name:"profile mutations are semantics-neutral"
    Prog_gen.arbitrary_program (fun p ->
      List.for_all
        (fun m ->
          let check =
            { Oracle.default_check with
              Oracle.ck_config =
                Hlo.Config.with_scope Oracle.default_check.Oracle.ck_config
                  Hlo.Config.CP;
              ck_mutation = m }
          in
          let res = Oracle.check_transform ~interp_config check p in
          match res.Oracle.tr_verdict with
          | None -> true
          | Some (cls, detail) ->
            QCheck.Test.fail_report
              (Printf.sprintf "mutation %s broke semantics [%s]: %s"
                 (Oracle.mutation_to_string m) cls detail))
        mutations)

(* ------------------------------------------------------------------ *)
(* Fuzz-engine plumbing.                                               *)

let test_bucket_stability () =
  let crash c =
    Oracle.Fuzz.bucket_of_kind (Oracle.Fuzz.Crash { exn_class = c; detail = "d" })
  in
  let mism c =
    Oracle.Fuzz.bucket_of_kind (Oracle.Fuzz.Mismatch { cls = c; detail = "d" })
  in
  (* Stage indices vary run to run; digits are stripped before hashing
     so every pass of the same stage lands in one bucket. *)
  Alcotest.(check string) "pass index ignored"
    (crash "invalid_ir:clone pass 0") (crash "invalid_ir:clone pass 3");
  Alcotest.(check bool) "stages distinguished" false
    (String.equal (crash "invalid_ir:clone pass 0") (crash "invalid_ir:inline pass 0"));
  Alcotest.(check bool) "mismatch classes distinguished" false
    (String.equal (mism "output") (mism "globals:gs"));
  Alcotest.(check bool) "crash vs mismatch distinguished" false
    (String.equal (crash "output") (mism "output"));
  Alcotest.(check int) "bucket is short hex" 10 (String.length (mism "output"))

let test_combined_roundtrip () =
  let sources =
    [ src "lib" "public global gs;\nfunc f(x) { return x + 1; }";
      src "app" "func main() { gs = f(4); print_int(gs); return 0; }" ]
  in
  let back = Oracle.Fuzz.parse_combined (Oracle.Fuzz.print_combined sources) in
  Alcotest.(check (list string)) "module names"
    (List.map (fun s -> s.Minic.Compile.src_module) sources)
    (List.map (fun s -> s.Minic.Compile.src_module) back);
  List.iter2
    (fun a b ->
      Alcotest.(check string) "text survives"
        (String.trim a.Minic.Compile.src_text)
        (String.trim b.Minic.Compile.src_text))
    sources back;
  (* And the round-tripped program still means the same thing. *)
  Alcotest.(check string) "same behavior"
    (Oracle.outcome_to_string (Oracle.observe ~config:interp_config (compile sources)))
    (Oracle.outcome_to_string (Oracle.observe ~config:interp_config (compile back)))

let test_run_case_classification () =
  let case sources =
    { Oracle.Fuzz.c_label = "unit";
      c_sources = sources;
      c_check = Oracle.default_check }
  in
  (match
     Oracle.Fuzz.run_case ~interp_config (case [ src "m" "func main( { return 0; }" ])
   with
  | Oracle.Fuzz.Skipped _ -> ()
  | _ -> Alcotest.fail "parse error should be Skipped, not a finding");
  match
    Oracle.Fuzz.run_case ~interp_config
      (case [ src "m" "func main() { print_int(3); return 0; }" ])
  with
  | Oracle.Fuzz.Passed -> ()
  | Oracle.Fuzz.Skipped why -> Alcotest.failf "unexpected skip: %s" why
  | Oracle.Fuzz.Failed f ->
    Alcotest.failf "unexpected failure in bucket %s" f.Oracle.Fuzz.f_bucket

(* ------------------------------------------------------------------ *)
(* Reducer machinery.                                                  *)

let test_ddmin () =
  let items = List.init 32 succ in
  Alcotest.(check (list int)) "single culprit"
    [ 7 ]
    (Oracle.Reduce.ddmin ~test:(List.mem 7) items);
  Alcotest.(check (list int)) "interacting pair"
    [ 3; 21 ]
    (Oracle.Reduce.ddmin ~test:(fun l -> List.mem 3 l && List.mem 21 l) items);
  Alcotest.(check (list int)) "non-failing input unchanged"
    [ 1; 2; 3 ]
    (Oracle.Reduce.ddmin ~test:(fun _ -> false) [ 1; 2; 3 ]);
  (* 1-minimality: removing any single element breaks the predicate. *)
  let need l = List.length (List.filter (fun x -> x mod 5 = 0) l) >= 3 in
  let reduced = Oracle.Reduce.ddmin ~test:need items in
  Alcotest.(check bool) "still fails" true (need reduced);
  List.iteri
    (fun i _ ->
      let without = List.filteri (fun j _ -> j <> i) reduced in
      Alcotest.(check bool) "1-minimal" false (need without))
    reduced

let test_split_statements () =
  let source =
    "// header comment\nvar x = 1; if (x) {\n  x = 2; // trailing\n} else { }\n"
  in
  Alcotest.(check (list string)) "statement granularity"
    [ "var x = 1;"; "if (x) {"; "x = 2;"; "}"; "else {"; "}" ]
    (Oracle.Reduce.split_statements source);
  (* A for header contains semicolons inside parens and must stay
     atomic, or ddmin would produce garbage candidates. *)
  Alcotest.(check (list string)) "for header atomic"
    [ "for (var i = 0; i < 3; i = i + 1) {"; "print_int(i);"; "}" ]
    (Oracle.Reduce.split_statements
       "for (var i = 0; i < 3; i = i + 1) { print_int(i); }")

(* ------------------------------------------------------------------ *)
(* Chaos validation: seeded miscompilations must be caught, reduced    *)
(* small, and vanish when disarmed.                                    *)

(* Corpus programs first (the dune rule stages test/corpus/*.mc into
   the sandbox), then corpus again with an inlining-free config that
   forces cloning to carry the load, then generated wild programs. *)
let corpus_dir =
  (* cwd is _build/default/test under `dune runtest`, the project root
     under `dune exec test/test_oracle.exe`. *)
  lazy (if Sys.file_exists "corpus" then "corpus" else "test/corpus")

let corpus_cases =
  lazy
    (Sys.readdir (Lazy.force corpus_dir) |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (fun f ->
           ( Filename.chop_suffix f ".mc",
             Oracle.Fuzz.parse_combined
               (In_channel.with_open_text
                  (Filename.concat (Lazy.force corpus_dir) f)
                  In_channel.input_all) )))

let clone_only_check =
  { Oracle.default_check with
    Oracle.ck_config =
      { Oracle.default_check.Oracle.ck_config with
        Hlo.Config.enable_inlining = false } }

(* A starved region-mode configuration: the tight budget makes every
   whole-body candidate unaffordable, so the inliner splits callees
   through the outliner on each corpus program — the only code path
   where [Region_lost_cold_path] can strike. *)
let region_check =
  { Oracle.default_check with
    Oracle.ck_config =
      { Oracle.default_check.Oracle.ck_config with
        Hlo.Config.inline_mode = Policy.Region;
        budget_percent = 2.0;
        region_cold_fraction = 0.6 } }

let chaos_case i =
  let corpus = Lazy.force corpus_cases in
  let n = List.length corpus in
  if i < 3 * n then
    let name, sources = List.nth corpus (i mod n) in
    let check =
      if i < n then Oracle.default_check
      else if i < 2 * n then clone_only_check
      else region_check
    in
    { Oracle.Fuzz.c_label = Printf.sprintf "corpus:%s" name;
      c_sources = sources;
      c_check = check }
  else
    let st = Random.State.make [| 0x9e3779; 1; i |] in
    { Oracle.Fuzz.c_label = Printf.sprintf "gen:%d" i;
      c_sources = Prog_gen.render_shape (Prog_gen.gen_shape Prog_gen.wild_opts st);
      c_check = Oracle.default_check }

let test_chaos bug () =
  let failure, reduced =
    Hlo.Chaos.with_bug bug (fun () ->
        let rec hunt i =
          if i >= 120 then
            Alcotest.failf "bug %s not caught within 120 cases" (Hlo.Chaos.name bug)
          else
            match Oracle.Fuzz.run_case ~interp_config (chaos_case i) with
            | Oracle.Fuzz.Failed f -> f
            | Oracle.Fuzz.Passed | Oracle.Fuzz.Skipped _ -> hunt (i + 1)
        in
        let failure = hunt 0 in
        (failure, Oracle.Reduce.reduce ~interp_config failure))
  in
  Alcotest.(check string) "reduction stays in the original bucket"
    failure.Oracle.Fuzz.f_bucket reduced.Oracle.Reduce.r_failure.Oracle.Fuzz.f_bucket;
  Alcotest.(check bool)
    (Printf.sprintf "reduced to < 30 lines (got %d)" reduced.Oracle.Reduce.r_lines)
    true
    (reduced.Oracle.Reduce.r_lines < 30);
  (* The minimal repro must be the bug's fault, not the program's: with
     chaos disarmed the very same case passes. *)
  match Oracle.Fuzz.run_case ~interp_config reduced.Oracle.Reduce.r_case with
  | Oracle.Fuzz.Passed -> ()
  | Oracle.Fuzz.Skipped why -> Alcotest.failf "reduced case stopped compiling: %s" why
  | Oracle.Fuzz.Failed f ->
    Alcotest.failf "reduced case still fails with chaos disarmed (bucket %s)"
      f.Oracle.Fuzz.f_bucket

(* Disarmed, every corpus program passes every corpus check — the
   regression replay for the hand-written and reduced programs there
   (e.g. clone_after_prune, a once seed-dependent invalid-IR crash). *)
let test_corpus_replays_clean () =
  List.iteri
    (fun i _ ->
      let case = chaos_case i in
      match Oracle.Fuzz.run_case ~interp_config case with
      | Oracle.Fuzz.Passed -> ()
      | Oracle.Fuzz.Skipped why ->
        Alcotest.failf "%s skipped: %s" case.Oracle.Fuzz.c_label why
      | Oracle.Fuzz.Failed f ->
        Alcotest.failf "%s fails (bucket %s)" case.Oracle.Fuzz.c_label
          f.Oracle.Fuzz.f_bucket)
    (List.concat (List.init 3 (fun _ -> Lazy.force corpus_cases)))

let test_campaign_buckets () =
  let stats =
    Hlo.Chaos.with_bug Hlo.Chaos.Prune_address_taken (fun () ->
        Oracle.Fuzz.campaign ~interp_config ~max_runs:6 ~gen:chaos_case ())
  in
  Alcotest.(check int) "all corpus cases ran" 6 stats.Oracle.Fuzz.st_runs;
  Alcotest.(check bool) "campaign surfaced failures" true
    (stats.Oracle.Fuzz.st_failures > 0);
  Alcotest.(check bool) "failures were bucketed" true
    (stats.Oracle.Fuzz.st_buckets <> []);
  List.iter
    (fun (bucket, first, count) ->
      Alcotest.(check string) "bucket matches its first failure" bucket
        first.Oracle.Fuzz.f_bucket;
      Alcotest.(check bool) "count positive" true (count > 0))
    stats.Oracle.Fuzz.st_buckets

(* ------------------------------------------------------------------ *)
(* The measure step.                                                   *)

let compress_subject () =
  let p =
    Workloads.Suite.compile (Workloads.Suite.find "026.compress")
      ~input:Workloads.Suite.Train
  in
  Oracle.Evaluate.prepare ~name:"026.compress" ~train:p p

let ir p = Format.asprintf "%a" Ucode.Pp.pp_program p

(* Without profile feedback HLO sees the empty profile: the outliner
   would otherwise still read the trained one and split differently. *)
let test_evaluate_no_profile () =
  let subject = compress_subject () in
  let config =
    { (Hlo.Config.with_scope Hlo.Config.default Hlo.Config.C) with
      Hlo.Config.outline = true }
  in
  let r = Oracle.Evaluate.evaluate ~config subject in
  let driver profile =
    ir (Hlo.Driver.run ~config ~profile subject.Oracle.Evaluate.program)
      .Hlo.Driver.program
  in
  Alcotest.(check string) "IR of the empty-profile run"
    (driver Ucode.Profile.empty) (ir r.Oracle.Evaluate.optimized);
  Alcotest.(check bool) "the trained profile would change it" false
    (String.equal (driver subject.Oracle.Evaluate.profile)
       (ir r.Oracle.Evaluate.optimized))

let test_prepare_refuses_trap () =
  let p = compile [ src "m" "func main() { print_int(7); abort(); return 0; }" ] in
  match Oracle.Evaluate.prepare ~name:"aborts" ~train:p p with
  | _ -> Alcotest.fail "prepared a program whose reference run traps"
  | exception Oracle.Evaluate.Rejected { subject; cls; _ } ->
    Alcotest.(check (pair string string)) "refusal" ("aborts", "reference")
      (subject, cls)

let test_check_matches_sim () =
  let subject = compress_subject () in
  let r = Oracle.Evaluate.evaluate ~config:Hlo.Config.default subject in
  let optimized = r.Oracle.Evaluate.optimized in
  let metrics ?sim_config () =
    (Machine.Sim.run_program ?config:sim_config optimized).Machine.Sim.metrics
  in
  Alcotest.(check bool) "evaluate's metrics" true
    (r.Oracle.Evaluate.metrics = metrics ());
  Alcotest.(check bool) "check, default machine" true
    (Oracle.Evaluate.check subject r optimized = metrics ());
  let sim_config =
    { Machine.Sim.default_config with
      Machine.Sim.icache = { Machine.Cache.sets = 16; assoc = 1; line_words = 8 } }
  in
  Alcotest.(check bool) "check, small I-cache" true
    (Oracle.Evaluate.check ~sim_config subject r optimized
    = metrics ~sim_config ())

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "oracle"
    [ ( "compare",
        [ Alcotest.test_case "finished" `Quick test_compare_finished;
          Alcotest.test_case "traps" `Quick test_compare_traps;
          Alcotest.test_case "erasable traps" `Quick test_compare_erasable;
          Alcotest.test_case "divergence" `Quick test_compare_divergence ] );
      ( "transform",
        [ Alcotest.test_case "observe classifies" `Quick test_observe_classifies;
          Alcotest.test_case "clean transform" `Quick test_check_transform_clean;
          to_alcotest prop_mutations_neutral ] );
      ( "fuzz",
        [ Alcotest.test_case "bucket stability" `Quick test_bucket_stability;
          Alcotest.test_case "combined round trip" `Quick test_combined_roundtrip;
          Alcotest.test_case "run_case classification" `Quick
            test_run_case_classification;
          Alcotest.test_case "campaign buckets" `Quick test_campaign_buckets;
          Alcotest.test_case "corpus replays clean" `Quick
            test_corpus_replays_clean ] );
      ( "evaluate",
        [ Alcotest.test_case "no profile feedback" `Quick
            test_evaluate_no_profile;
          Alcotest.test_case "trapping reference refused" `Quick
            test_prepare_refuses_trap;
          Alcotest.test_case "check = simulator" `Quick test_check_matches_sim ] );
      ( "reduce",
        [ Alcotest.test_case "ddmin" `Quick test_ddmin;
          Alcotest.test_case "split statements" `Quick test_split_statements ] );
      ( "chaos",
        List.map
          (fun bug -> Alcotest.test_case (Hlo.Chaos.name bug) `Quick (test_chaos bug))
          Hlo.Chaos.all ) ]
