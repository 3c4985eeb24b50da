(* Prints every table of `hlo-experiments all` — Figure 5, Table 1,
   Figures 6, 7 and 8, the ablations, the I-cache sweep and the scaling
   study — and the `hlo-experiments modes` table (whole against region
   inlining at a 15% budget), computed through the experiments library
   at the input named by the one argument ([train] or [ref]).  The two
   wall-clock columns (Table 1 and scaling [compile(s)]) are set to 0.0
   here, so the output is a deterministic function of the compiler and
   the simulator.  The dune rule next to this file diffs the train
   output against experiments.expected; ci.sh diffs the ref output
   against experiments_ref.expected. *)

module E = Experiments

let section title table = Printf.printf "== %s ==\n%s\n" title table

let () =
  let input =
    match Sys.argv with
    | [| _; "train" |] -> Workloads.Suite.Train
    | [| _; "ref" |] -> Workloads.Suite.Ref
    | _ ->
      prerr_endline "usage: experiments.exe (train|ref)";
      exit 2
  in
  section "fig5" (E.Fig5_callsites.to_table (E.Fig5_callsites.run ()));
  section "table1"
    (E.Table1_transforms.to_table
       (List.map
          (fun (r : E.Table1_transforms.row) ->
            { r with E.Table1_transforms.compile_seconds = 0.0 })
          (E.Table1_transforms.run ~input ())));
  section "fig6" (E.Fig6_speedup.to_table (E.Fig6_speedup.run ~input ()));
  section "fig7" (E.Fig7_simulation.to_table (E.Fig7_simulation.run ()));
  section "fig8" (E.Fig8_budget.to_table (E.Fig8_budget.run ~input ()));
  List.iter
    (fun s -> section "ablations" (E.Ablations.to_table s))
    (E.Ablations.all ~input ());
  section "cache" (E.Cache_sweep.to_table (E.Cache_sweep.run ~input ()));
  section "scaling"
    (E.Scaling.to_table
       (List.map
          (fun (r : E.Scaling.row) ->
            { r with E.Scaling.sc_compile_seconds = 0.0 })
          (E.Scaling.run ())));
  section "modes" (E.Inline_modes.to_table (E.Inline_modes.run ~input ~budget:15.0 ()))
