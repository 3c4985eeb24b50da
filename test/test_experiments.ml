(* Tests for the experiment harness: the paper's shape claims on each
   table/figure reproduction, run at train inputs for speed.  Row
   counts and table rendering are not asserted here: the experiments
   golden (test/golden/experiments.expected) pins every table byte for
   byte. *)

module U = Ucode.Types

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_tables_render () =
  let s =
    Experiments.Tables.render
      ~aligns:[ Experiments.Tables.Left ]
      ~headers:[ "name"; "value" ]
      [ [ "a"; "1" ]; [ "long-name"; "23456" ] ]
  in
  check_bool "header present" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  (* Every line has the same width. *)
  let lines = String.split_on_char '\n' (String.trim s) in
  let widths = List.map String.length lines in
  check_bool "aligned" true
    (List.for_all (fun w -> w = List.hd widths) widths)

let test_geomean () =
  Alcotest.(check (float 0.0001)) "geomean" 2.0
    (Experiments.Tables.geomean [ 1.0; 4.0 ]);
  Alcotest.(check (float 0.0001)) "empty" 0.0 (Experiments.Tables.geomean [])

let test_fig5_structure () =
  let rows = Experiments.Fig5_callsites.run () in
  List.iter
    (fun (r : Experiments.Fig5_callsites.row) ->
      let sum = List.fold_left (fun acc (_, n) -> acc + n) 0 r.counts in
      check_int (r.benchmark ^ " total = sum of classes") r.total sum;
      check_bool "nonempty" true (r.total > 0))
    rows

let test_table1_structure () =
  let rows =
    Experiments.Table1_transforms.run ~input:Workloads.Suite.Train
      ~benchmarks:[ "022.li" ] ()
  in
  List.iter
    (fun (r : Experiments.Table1_transforms.row) ->
      check_bool "counts nonnegative" true
        (r.inlines >= 0 && r.clones >= 0 && r.clone_replacements >= 0
       && r.deletions >= 0);
      check_bool "cycles positive" true (r.run_cycles > 0);
      check_bool "compile cost positive" true (r.compile_cost > 0.0))
    rows;
  (* The widest scope must not be slower than the narrowest — the
     paper's monotonic-improvement property, allowing 2% noise. *)
  let cycles scope =
    let r =
      List.find (fun (r : Experiments.Table1_transforms.row) -> r.scope = scope)
        rows
    in
    float_of_int r.run_cycles
  in
  check_bool "cp <= base * 1.02" true
    (cycles Hlo.Config.CP <= cycles Hlo.Config.Base *. 1.02)

let test_fig6_structure () =
  let bs =
    List.filter
      (fun b ->
        List.mem b.Workloads.Suite.b_name [ "022.li"; "147.vortex"; "072.sc" ])
      Workloads.Suite.all
  in
  let result =
    Experiments.Fig6_speedup.run ~input:Workloads.Suite.Train ~benchmarks:bs ()
  in
  List.iter
    (fun (r : Experiments.Fig6_speedup.row) ->
      check_bool "speedups positive" true
        (r.speedup_inline > 0.5 && r.speedup_clone > 0.5 && r.speedup_both > 0.5);
      (* The paper's headline: inlining helps substantially, cloning
         alone does little. *)
      check_bool (r.benchmark ^ " inlining helps") true (r.speedup_inline > 1.05);
      check_bool (r.benchmark ^ " cloning alone modest") true
        (r.speedup_clone < r.speedup_inline))
    result.Experiments.Fig6_speedup.rows

let test_fig7_structure () =
  let rows =
    Experiments.Fig7_simulation.run ~input:Workloads.Suite.Train
      ~benchmarks:[ "147.vortex" ] ()
  in
  let find t =
    List.find (fun (r : Experiments.Fig7_simulation.row) -> r.transforms = t) rows
  in
  let neither = find Experiments.Fig6_speedup.Neither in
  let both = find Experiments.Fig6_speedup.Both in
  Alcotest.(check (float 0.0001)) "baseline relative cycles = 1" 1.0
    neither.Experiments.Fig7_simulation.rel_cycles;
  (* The paper's Figure 7 shape for a call-heavy benchmark. *)
  check_bool "cycles drop" true (both.Experiments.Fig7_simulation.rel_cycles < 1.0);
  check_bool "dcache accesses drop" true
    (both.Experiments.Fig7_simulation.rel_dcache_accesses < 1.0);
  check_bool "branches drop" true
    (both.Experiments.Fig7_simulation.rel_branches < 1.0)

let test_fig8_structure () =
  let curves =
    Experiments.Fig8_budget.run ~input:Workloads.Suite.Train
      ~budgets:[ 25.0; 100.0 ] ~points:4 ()
  in
  List.iter
    (fun (c : Experiments.Fig8_budget.curve) ->
      (* Operation caps are respected and increase along the curve. *)
      let caps = List.map (fun p -> p.Experiments.Fig8_budget.operations) c.points in
      check_bool "caps increase" true (List.sort compare caps = caps);
      List.iter
        (fun (p : Experiments.Fig8_budget.point) ->
          check_bool "performed <= cap" true (p.performed <= p.operations))
        c.points;
      (* More operations should not make the program slower overall:
         final point at most 2% above the best intermediate one would
         be suspicious of a regression; final must beat the start. *)
      match (List.hd c.points, List.rev c.points) with
      | first, last :: _ ->
        check_bool "end faster than start" true
          (last.Experiments.Fig8_budget.run_cycles
          < first.Experiments.Fig8_budget.run_cycles)
      | _ -> ())
    curves;
  (* The larger budget performs at least as many operations. *)
  match curves with
  | [ c25; c100 ] ->
    let total (c : Experiments.Fig8_budget.curve) =
      (List.hd (List.rev c.points)).Experiments.Fig8_budget.performed
    in
    check_bool "bigger budget, more operations" true (total c100 >= total c25)
  | _ -> Alcotest.fail "expected the 25% and 100% curves"

let test_ablations_structure () =
  let studies =
    Experiments.Ablations.all ~input:Workloads.Suite.Train
      ~benchmarks:[ "124.m88ksim" ] ()
  in
  List.iter
    (fun (s : Experiments.Ablations.study) ->
      List.iter
        (fun (r : Experiments.Ablations.variant_row) ->
          check_bool "cycles positive" true (r.Experiments.Ablations.a_cycles > 0))
        s.Experiments.Ablations.st_rows)
    studies;
  (* Positioning must not hurt on the tight cache. *)
  let pos =
    List.find
      (fun (s : Experiments.Ablations.study) ->
        String.length s.Experiments.Ablations.st_name > 0
        && s.Experiments.Ablations.st_name.[0] = 'p')
      studies
  in
  match pos.Experiments.Ablations.st_rows with
  | [ base; ph ] ->
    check_bool "pettis-hansen not worse" true
      (ph.Experiments.Ablations.a_cycles
      <= base.Experiments.Ablations.a_cycles)
  | _ -> Alcotest.fail "expected two positioning rows"

let test_cache_sweep_structure () =
  let sweeps = Experiments.Cache_sweep.run ~benchmarks:[ "147.vortex" ] () in
  match sweeps with
  | [ s ] ->
    check_bool "code grew under inlining" true
      (s.Experiments.Cache_sweep.cw_code_opt
      > s.Experiments.Cache_sweep.cw_code_base);
    List.iter
      (fun (p : Experiments.Cache_sweep.point) ->
        check_bool "speedup sensible" true
          (p.cw_speedup > 0.5 && p.cw_speedup < 10.0))
      s.Experiments.Cache_sweep.cw_points;
    (* The abstract's claim: at ample capacity the inlined binary's
       miss rate is tiny and the speedup is at its plateau. *)
    let last = List.hd (List.rev s.Experiments.Cache_sweep.cw_points) in
    check_bool "large cache miss rate tiny" true (last.cw_opt_miss_rate < 0.01);
    let best =
      List.fold_left
        (fun acc (p : Experiments.Cache_sweep.point) -> Float.max acc p.cw_speedup)
        0.0 s.Experiments.Cache_sweep.cw_points
    in
    check_bool "plateau near best" true (last.cw_speedup >= best *. 0.9)
  | _ -> Alcotest.fail "expected one sweep"

let test_scaling_structure () =
  let module S = Experiments.Scaling in
  let rows = S.run ~sizes:[ 25; 100 ] () in
  Alcotest.(check int) "one row per shape and size"
    (2 * List.length Prog_gen.Scale.all_shapes) (List.length rows);
  List.iter
    (fun (r : S.row) ->
      let what = Printf.sprintf "%s/%d"
          (Prog_gen.Scale.shape_name r.sc_shape) r.sc_routines in
      check_bool (what ^ " speedup >= 1") true (r.sc_speedup >= 1.0);
      check_bool (what ^ " budget respected") true (r.sc_cost_growth <= 2.05))
    rows;
  match rows with
  | small :: big :: _ ->
    check_bool "bigger program" true (big.S.sc_routines > small.S.sc_routines)
  | _ -> Alcotest.fail "expected two rows per shape"

(* The guard every experiment runs can fail: with a seeded
   miscompilation armed, an ablation raises instead of printing cycles,
   and the tuner rejects the candidate as an oracle mismatch. *)
let test_guard_chaos () =
  let lost_retval f = Hlo.Chaos.with_bug Hlo.Chaos.Inline_lost_retval f in
  (match
     lost_retval (fun () ->
         Experiments.Ablations.staging ~input:Workloads.Suite.Train
           ~benchmarks:[ "022.li" ] ())
   with
  | _ -> Alcotest.fail "ablation printed cycles of a miscompiled program"
  | exception Oracle.Evaluate.Rejected { subject; _ } ->
    Alcotest.(check string) "rejected subject" "022.li" subject);
  let subject =
    Experiments.Subject.of_benchmark ~input:Workloads.Suite.Train
      (Workloads.Suite.find "022.li")
  in
  match
    lost_retval (fun () ->
        Experiments.Policy_search.evaluate subject Policy.default)
  with
  | Ok _ -> Alcotest.fail "miscompiled candidate was scored"
  | Error msg ->
    check_bool
      (Printf.sprintf "oracle rejection (%s)" msg)
      true
      (String.starts_with ~prefix:"oracle:" msg)

let () =
  Alcotest.run "experiments"
    [ ( "tables",
        [ Alcotest.test_case "render" `Quick test_tables_render;
          Alcotest.test_case "geomean" `Quick test_geomean ] );
      ( "figures",
        [ Alcotest.test_case "fig5" `Quick test_fig5_structure;
          Alcotest.test_case "table1" `Slow test_table1_structure;
          Alcotest.test_case "fig6" `Slow test_fig6_structure;
          Alcotest.test_case "fig7" `Slow test_fig7_structure;
          Alcotest.test_case "fig8" `Slow test_fig8_structure;
          Alcotest.test_case "ablations" `Slow test_ablations_structure;
          Alcotest.test_case "cache sweep" `Slow test_cache_sweep_structure;
          Alcotest.test_case "scaling" `Slow test_scaling_structure ] );
      ("guard", [ Alcotest.test_case "chaos" `Slow test_guard_chaos ]) ]
