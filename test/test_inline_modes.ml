(* The differential battery for the two inlining modes
   (--inline-mode whole | region):

   - whole mode is bit-identical — IR, report and decision journal —
     whether or not the new region knobs are set, on every corpus
     program and at starved budgets (together with the committed CLI
     golden files in test/cli, which pin whole-mode bytes across PRs,
     this is the "whole never moved" guarantee);
   - both modes are semantically equivalent on generated wild and
     hot/cold-skewed programs, at generous and starved budgets, gated
     by the oracle;
   - region mode never ends with a costlier program than whole mode on
     the seeded corpus (outlining the cold half of an over-budget
     callee is quadratically profitable; the hot residue it buys back
     is budget-checked like any other inline);
   - the per-mode decision-journal reasons: a split callee journals
     [Rejected "outlined_then_inlined"] for its whole-body candidate,
     and [Rejected "residue_over_budget"] when even the residue fails;
     whole mode journals plain [Rejected "budget"] exactly as before;
   - the seeded [Region_lost_cold_path] chaos miscompilation is caught
     by the oracle under a region-mode check (the full
     hunt/reduce/disarm cycle lives with the other chaos bugs in
     test_oracle.ml) and lands in a region-tagged fuzz bucket. *)

module U = Ucode.Types
module E = Telemetry.Event

let check_string = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let interp_config = Prog_gen.interp_config

(* ------------------------------------------------------------------ *)
(* Corpus and pipeline helpers.                                        *)

let corpus_dir =
  lazy (if Sys.file_exists "corpus" then "corpus" else "test/corpus")

let corpus =
  lazy
    (Sys.readdir (Lazy.force corpus_dir) |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (fun f ->
           let sources =
             Oracle.Fuzz.parse_combined
               (In_channel.with_open_text
                  (Filename.concat (Lazy.force corpus_dir) f)
                  In_channel.input_all)
           in
           ( Filename.chop_suffix f ".mc",
             fst (Minic.Compile.compile_program sources) )))

let base_config = { Hlo.Config.default with Hlo.Config.validate = true }

let with_mode config mode =
  { config with Hlo.Config.inline_mode = mode }

(* Compile [p] under [config] with a private collector, returning the
   three byte-level artifacts whole mode must keep stable: optimized
   IR, the [hlo] report line, and the rendered decision journal. *)
let capture ~config p =
  let profile = (Interp.train p).Interp.profile in
  let c = Telemetry.Collector.create () in
  Telemetry.Collector.install c;
  Fun.protect ~finally:Telemetry.Collector.uninstall @@ fun () ->
  let res = Hlo.Driver.run ~config ~profile p in
  ( res,
    Serve.Pipeline.ir res.Hlo.Driver.program,
    Serve.Pipeline.report_line res.Hlo.Driver.report,
    Serve.Pipeline.journal (Telemetry.Collector.decisions c) )

(* ------------------------------------------------------------------ *)
(* Whole mode is inert under the new knobs.                            *)

(* Setting the region knobs without leaving whole mode must change no
   byte of IR, report or journal — the region machinery is strictly
   gated on the mode, so [--region-cold-fraction] alone is a no-op.
   Checked at the default and at a starved budget (the starved path is
   where region diverges, so it is where a gating bug would hide). *)
let test_whole_mode_inert () =
  List.iter
    (fun budget ->
      List.iter
        (fun (name, p) ->
          let plain = { base_config with Hlo.Config.budget_percent = budget } in
          let knobbed =
            { plain with Hlo.Config.region_cold_fraction = 0.9 }
          in
          let _, ir0, rep0, j0 = capture ~config:plain p in
          let _, ir1, rep1, j1 = capture ~config:knobbed p in
          let label what = Printf.sprintf "%s (%s @ %g%%)" what name budget in
          check_string (label "IR") ir0 ir1;
          check_string (label "report") rep0 rep1;
          check_string (label "journal") j0 j1;
          let contains hay needle =
            let n = String.length needle and h = String.length hay in
            let rec go i =
              i + n <= h && (String.sub hay i n = needle || go (i + 1))
            in
            go 0
          in
          check_bool (label "no residue counter") false
            (contains rep0 "residues=");
          check_bool (label "no split reasons") false
            (contains j0 "outlined_then_inlined"
            || contains j0 "residue_over_budget"))
        (Lazy.force corpus))
    [ 100.0; 2.0 ]

(* ------------------------------------------------------------------ *)
(* Oracle-gated mode equivalence on generated programs.                *)

let check_with mode budget fraction =
  { Oracle.default_check with
    Oracle.ck_config =
      { Oracle.default_check.Oracle.ck_config with
        Hlo.Config.inline_mode = mode; budget_percent = budget;
        region_cold_fraction = fraction } }

(* Generous and starved budgets for region mode; the starved point is
   where splitting actually fires. *)
let mode_checks =
  [ ("region", check_with Policy.Region 100.0 0.5);
    ("region starved", check_with Policy.Region 2.0 0.6);
    ("whole starved", check_with Policy.Whole 2.0 0.5) ]

let prop_modes_preserve arbitrary label =
  QCheck.Test.make ~count:12
    ~name:(Printf.sprintf "all modes preserve semantics (%s)" label)
    arbitrary
    (fun sh ->
      let sources = Prog_gen.render_shape sh in
      List.for_all
        (fun (what, check) ->
          let case =
            { Oracle.Fuzz.c_label = label ^ ":" ^ what; c_sources = sources;
              c_check = check }
          in
          match Oracle.Fuzz.run_case ~interp_config case with
          | Oracle.Fuzz.Passed | Oracle.Fuzz.Skipped _ -> true
          | Oracle.Fuzz.Failed f ->
            QCheck.Test.fail_report
              (Printf.sprintf "%s broke semantics [bucket %s]: %s" what
                 f.Oracle.Fuzz.f_bucket
                 (match f.Oracle.Fuzz.f_kind with
                 | Oracle.Fuzz.Mismatch { cls; detail } -> cls ^ "\n" ^ detail
                 | Oracle.Fuzz.Crash { exn_class; detail } ->
                   exn_class ^ "\n" ^ detail)))
        mode_checks)

let prop_modes_preserve_wild =
  prop_modes_preserve (Prog_gen.arbitrary_shape Prog_gen.wild_opts) "wild"

let prop_modes_preserve_skewed =
  prop_modes_preserve Prog_gen.arbitrary_skewed_shape "skew"

(* The two modes must also agree with each other on what the program
   prints — not just each against the source program.  (Transitively
   implied by the oracle gate, but cheap to assert directly on the
   corpus, where it documents the contract.) *)
let test_modes_agree_on_corpus () =
  List.iter
    (fun (name, p) ->
      let out mode =
        let config =
          { (with_mode base_config mode) with
            Hlo.Config.budget_percent = 2.0; region_cold_fraction = 0.6 }
        in
        let res, _, _, _ = capture ~config p in
        (Interp.run ~config:interp_config res.Hlo.Driver.program).Interp.output
      in
      check_string (name ^ ": region agrees") (out Policy.Whole)
        (out Policy.Region))
    (Lazy.force corpus)

(* ------------------------------------------------------------------ *)
(* Region size discipline on the corpus.                               *)

(* "Never worse than whole", in the compile-cost metric the budget
   governs (sum of routine sizes squared) — an unconditional cost
   inequality would be false, because region mode exists precisely to
   *buy* inlining whole mode cannot afford (on the corpus: region_warm
   at a generous budget, where region pays some cost for a hot-residue
   inline whole rejects outright).  The checkable claims:

   1. region respects exactly the budget ceiling whole obeys;
   2. region ends costlier than whole only when the cost bought extra
      accepted inlines — equivalently, with no extra inlines region is
      never costlier, since splitting alone is quadratically
      profitable.  (Linear instruction count may grow by a split's
      call/return overhead even then, which is why the claim is stated
      in the governed metric.) *)
let test_region_size_discipline () =
  List.iter
    (fun budget ->
      List.iter
        (fun (name, p) ->
          let final mode =
            let config =
              { (with_mode base_config mode) with
                Hlo.Config.budget_percent = budget;
                region_cold_fraction = 0.6 }
            in
            let res, _, _, _ = capture ~config p in
            ( Ucode.Size.program_cost res.Hlo.Driver.program,
              Ucode.Size.program_size res.Hlo.Driver.program,
              res.Hlo.Driver.report.Hlo.Report.inlines,
              res.Hlo.Driver.report.Hlo.Report.cost_before )
          in
          let wc, _ws, wi, _ = final Policy.Whole in
          let rc, _rs, ri, before = final Policy.Region in
          let label fmt =
            Printf.ksprintf
              (fun s -> Printf.sprintf "%s @ %g%%: %s" name budget s)
              fmt
          in
          let ceiling = before *. (1.0 +. (budget /. 100.0)) in
          check_bool
            (label "region cost %.0f within whole's ceiling %.0f" rc ceiling)
            true
            (rc <= ceiling +. 1e-6);
          if rc > wc +. 1e-6 then
            check_bool
              (label "extra cost (%.0f > %.0f) must buy extra inlines (%d vs %d)"
                 rc wc ri wi)
              true (ri > wi))
        (Lazy.force corpus))
    [ 100.0; 10.0; 2.0 ]

(* ------------------------------------------------------------------ *)
(* The per-mode journal reasons.                                       *)

let journal_reasons decisions =
  List.filter_map
    (fun (d : E.decision) ->
      match d.E.d_verdict with
      | E.Rejected r when d.E.d_kind = E.Inline -> Some r
      | _ -> None)
    decisions

let run_with_journal ~config p =
  let profile = (Interp.train p).Interp.profile in
  let c = Telemetry.Collector.create () in
  Telemetry.Collector.install c;
  Fun.protect ~finally:Telemetry.Collector.uninstall @@ fun () ->
  let res = Hlo.Driver.run ~config ~profile p in
  (res, Telemetry.Collector.decisions c)

let region_warm =
  lazy (List.assoc "region_warm" (Lazy.force corpus))

let test_split_journal_reasons () =
  let p = Lazy.force region_warm in
  (* Starved region mode: the whole body of the warm routine is
     unaffordable, so it is split — journaled as a rejection of the
     whole-body candidate with the new reason — and cold residue
     routines appear in the report. *)
  let config =
    { (with_mode base_config Policy.Region) with
      Hlo.Config.budget_percent = 2.0; region_cold_fraction = 0.6 }
  in
  let res, decisions = run_with_journal ~config p in
  let reasons = journal_reasons decisions in
  check_bool "journals outlined_then_inlined" true
    (List.mem "outlined_then_inlined" reasons);
  check_bool "report counts residues" true
    (res.Hlo.Driver.report.Hlo.Report.residue_outlined > 0);
  (* At 2% the residue itself is still unaffordable: the split happens
     (it is free — quadratically profitable), and the residue's failing
     candidate is journaled with the residue-specific reason instead of
     the generic "budget". *)
  check_bool "journals residue_over_budget" true
    (List.mem "residue_over_budget" reasons);
  (* At a generous budget the split pays off: region inlines the hot
     residue whole mode could never afford whole-body. *)
  let inlines mode =
    let config =
      { (with_mode base_config mode) with
        Hlo.Config.budget_percent = 100.0; region_cold_fraction = 0.6 }
    in
    let res, _ = run_with_journal ~config p in
    res.Hlo.Driver.report.Hlo.Report.inlines
  in
  check_bool "region buys an inline whole cannot afford" true
    (inlines Policy.Region > inlines Policy.Whole);
  (* Whole mode never uses the new reasons, starved or not. *)
  let config =
    { base_config with Hlo.Config.budget_percent = 2.0 }
  in
  let _, decisions = run_with_journal ~config p in
  List.iter
    (fun r ->
      check_bool ("whole mode reason " ^ r) false
        (r = "outlined_then_inlined" || r = "residue_over_budget"))
    (journal_reasons decisions)

(* ------------------------------------------------------------------ *)
(* The chaos bug is oracle-visible and mode-tagged.                    *)

(* The full hunt -> reduce -> disarm cycle for [Region_lost_cold_path]
   runs with the other seeded bugs in test_oracle.ml; here we pin the
   two mode-specific properties: a region-mode check catches it on the
   corpus program built for it, and the failure lands in a bucket
   tagged with the mode (region-mode bugs are triaged apart from
   whole-mode ones). *)
let test_chaos_caught_and_tagged () =
  let sources =
    Oracle.Fuzz.parse_combined
      (In_channel.with_open_text
         (Filename.concat (Lazy.force corpus_dir) "region_warm.mc")
         In_channel.input_all)
  in
  let case =
    { Oracle.Fuzz.c_label = "chaos:region_warm";
      c_sources = sources;
      c_check = check_with Policy.Region 2.0 0.6 }
  in
  Hlo.Chaos.with_bug Hlo.Chaos.Region_lost_cold_path (fun () ->
      match Oracle.Fuzz.run_case ~interp_config case with
      | Oracle.Fuzz.Passed -> Alcotest.fail "lost cold path went unnoticed"
      | Oracle.Fuzz.Skipped why -> Alcotest.failf "case skipped: %s" why
      | Oracle.Fuzz.Failed f ->
        (match f.Oracle.Fuzz.f_kind with
        | Oracle.Fuzz.Mismatch _ -> ()
        | Oracle.Fuzz.Crash { exn_class; detail } ->
          Alcotest.failf "expected a semantic mismatch, got crash %s: %s"
            exn_class detail);
        check_string "bucket carries the mode tag"
          (Oracle.Fuzz.bucket_of_kind ~mode:Policy.Region f.Oracle.Fuzz.f_kind)
          f.Oracle.Fuzz.f_bucket;
        check_bool "tagged bucket differs from the whole-mode bucket" false
          (String.equal f.Oracle.Fuzz.f_bucket
             (Oracle.Fuzz.bucket_of_kind f.Oracle.Fuzz.f_kind)));
  (* Disarmed, the same case passes: the failure was the bug's. *)
  match Oracle.Fuzz.run_case ~interp_config case with
  | Oracle.Fuzz.Passed -> ()
  | Oracle.Fuzz.Skipped why -> Alcotest.failf "disarmed case skipped: %s" why
  | Oracle.Fuzz.Failed f ->
    Alcotest.failf "disarmed case still fails (bucket %s)"
      f.Oracle.Fuzz.f_bucket

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "inline_modes"
    [ ( "whole-identity",
        [ Alcotest.test_case "new knobs inert in whole mode" `Quick
            test_whole_mode_inert ] );
      ( "equivalence",
        [ to_alcotest prop_modes_preserve_wild;
          to_alcotest prop_modes_preserve_skewed;
          Alcotest.test_case "modes agree on corpus" `Quick
            test_modes_agree_on_corpus ] );
      ( "size",
        [ Alcotest.test_case "region size discipline" `Quick
            test_region_size_discipline ] );
      ( "journal",
        [ Alcotest.test_case "split reasons" `Quick
            test_split_journal_reasons ] );
      ( "chaos",
        [ Alcotest.test_case "lost cold path caught and mode-tagged" `Quick
            test_chaos_caught_and_tagged ] ) ]
