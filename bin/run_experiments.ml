(* Experiment runner: regenerates every table and figure of the
   paper's evaluation section.

     hlo-experiments fig5
     hlo-experiments table1 --input train
     hlo-experiments all --input ref   # the full reproduction *)

open Cmdliner

let input_conv =
  let parse = function
    | "train" -> Ok Workloads.Suite.Train
    | "ref" -> Ok Workloads.Suite.Ref
    | s -> Error (`Msg ("unknown input set " ^ s))
  in
  let print ppf = function
    | Workloads.Suite.Train -> Fmt.string ppf "train"
    | Workloads.Suite.Ref -> Fmt.string ppf "ref"
  in
  Arg.conv (parse, print)

let input_arg =
  Arg.(value
       & opt input_conv Workloads.Suite.Ref
       & info [ "input" ] ~docv:"SET"
           ~doc:"Input size for the timed runs: $(b,train) or $(b,ref).")

let section title = Fmt.pr "@.== %s ==@.@." title

let run_fig5 () =
  section "Figure 5: static characteristics of call sites";
  print_string (Experiments.Fig5_callsites.to_table (Experiments.Fig5_callsites.run ()))

let run_table1 input =
  section "Table 1: inline and clone information (scopes base/c/p/cp)";
  print_string
    (Experiments.Table1_transforms.to_table
       (Experiments.Table1_transforms.run ~input ()))

let run_fig6 input =
  section "Figure 6: relative speedup with inlining, cloning, or both";
  print_string (Experiments.Fig6_speedup.to_table (Experiments.Fig6_speedup.run ~input ()))

let run_fig7 () =
  section "Figure 7: simulation results (relative to neither)";
  print_string (Experiments.Fig7_simulation.to_table (Experiments.Fig7_simulation.run ()))

let run_fig8 input =
  section "Figure 8: incremental benefit of operations in 022.li, by budget";
  print_string (Experiments.Fig8_budget.to_table (Experiments.Fig8_budget.run ~input ()))

let run_cache_sweep input =
  section "I-cache sensitivity (abstract claim: large I-cache mitigates expansion)";
  print_string (Experiments.Cache_sweep.to_table (Experiments.Cache_sweep.run ~input ()))

let run_scaling () =
  section "Scaling study (paper 3.5): generated wide, deep and scc programs";
  print_string (Experiments.Scaling.to_table (Experiments.Scaling.run ()))

let run_pareto input =
  section "Pareto fronts: tuned policies vs the 1997 default (hlo_tune)";
  print_string
    (Experiments.Policy_search.to_table
       (Experiments.Policy_search.run ~input ()))

let run_modes input budget json_path =
  section
    "Inline modes: whole vs region (oracle-gated, starved budget)";
  let study = Experiments.Inline_modes.run ~input ~budget () in
  print_string (Experiments.Inline_modes.to_table study);
  let wins = Experiments.Inline_modes.region_wins study in
  Fmt.pr "region wins (faster, no larger): %s@."
    (if wins = [] then "none"
     else
       String.concat ", "
         (List.map
            (fun r -> r.Experiments.Inline_modes.im_benchmark)
            wins));
  match json_path with
  | None -> ()
  | Some path ->
    Out_channel.with_open_text path (fun oc ->
        output_string oc
          (Telemetry.Json.to_string (Experiments.Inline_modes.to_json study));
        output_char oc '\n');
    Fmt.pr "wrote %s@." path

let run_ablations input =
  section "Ablations: staging / cold penalty / outlining / positioning";
  List.iter
    (fun s ->
      print_string (Experiments.Ablations.to_table s);
      print_newline ())
    (Experiments.Ablations.all ~input ())

let run what input budget json_path =
  (match what with
  | "fig5" -> run_fig5 ()
  | "table1" -> run_table1 input
  | "fig6" -> run_fig6 input
  | "fig7" -> run_fig7 ()
  | "fig8" -> run_fig8 input
  | "ablations" -> run_ablations input
  | "scaling" -> run_scaling ()
  | "cache" -> run_cache_sweep input
  | "pareto" -> run_pareto input
  | "modes" -> run_modes input budget json_path
  | "all" ->
    run_fig5 ();
    run_table1 input;
    run_fig6 input;
    run_fig7 ();
    run_fig8 input;
    run_ablations input;
    run_cache_sweep input;
    run_scaling ()
  | other -> Fmt.epr "unknown experiment %s@." other; exit 2);
  Fmt.pr "@."

let what =
  Arg.(value & pos 0 string "all"
       & info [] ~docv:"EXPERIMENT"
           ~doc:"One of $(b,fig5), $(b,table1), $(b,fig6), $(b,fig7), \
                 $(b,fig8), $(b,ablations), $(b,cache), $(b,scaling), \
                 $(b,pareto), $(b,modes) or $(b,all).  $(b,pareto) (the \
                 $(b,hlo_tune) search at default parameters) and \
                 $(b,modes) (the whole/region inline-mode \
                 comparison) are not part of $(b,all).")

let budget_arg =
  Arg.(value & opt float 15.0
       & info [ "budget" ] ~docv:"PCT"
           ~doc:"Budget percentage for the $(b,modes) experiment.  The \
                 modes only diverge when callees are unaffordable whole, \
                 so the default starves the budget.")

let json_arg =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Where the $(b,modes) experiment writes its machine-readable \
                 results (e.g. BENCH_pr10.json).")

let cmd =
  let doc = "regenerate the evaluation tables and figures of the paper" in
  Cmd.v (Cmd.info "hlo-experiments" ~version:"1.0" ~doc)
    Term.(const run $ what $ input_arg $ budget_arg $ json_arg)

let () = exit (Cmd.eval cmd)
