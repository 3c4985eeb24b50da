(* Prints what HLO does to the benchmark's scale programs: the
   wide, deep and scc shapes of [Prog_gen.Scale] at 1000 routines and
   seed 1, each profiled on itself and compiled at the default
   configuration.  Per program: the report counts and optimized size,
   MD5s of the optimized IR text and of the decision journal, and the
   simulated cycles, output and exit code.  The pool degree comes from
   HLO_JOBS, as in every test.  The dune rule next to this file diffs
   the output against scale_hlo.expected. *)

module C = Telemetry.Collector

let digest s = Digest.to_hex (Digest.string s)

let program shape =
  let sources = Prog_gen.Scale.sources shape ~routines:1000 ~seed:1 in
  let p, _ = Minic.Compile.compile_program sources in
  let trained = Interp.train p in
  let c = C.create () in
  C.install c;
  let result =
    Fun.protect ~finally:C.uninstall (fun () ->
        Hlo.Driver.run ~profile:trained.Interp.profile p)
  in
  let optimized = result.Hlo.Driver.program in
  let r = result.Hlo.Driver.report in
  let sim = Machine.Sim.run (Machine.Layout.build optimized) in
  Printf.printf
    "== scale/%s: inlines=%d clones=%d clone_replacements=%d deletions=%d \
     outlined=%d residues=%d passes=%d size=%d\n"
    (Prog_gen.Scale.shape_name shape) r.Hlo.Report.inlines
    r.Hlo.Report.clones_created r.Hlo.Report.clone_replacements
    r.Hlo.Report.deletions r.Hlo.Report.outlined r.Hlo.Report.residue_outlined
    r.Hlo.Report.passes_run (Ucode.Size.program_size optimized);
  Printf.printf "   ir=%s journal=%s (%d decisions)\n"
    (digest (Ucode.Pp.program_to_string optimized))
    (digest (Serve.Pipeline.journal (C.decisions c)))
    (List.length (C.decisions c));
  Printf.printf "   cycles=%d exit=%Ld output=%d:%s\n"
    sim.Machine.Sim.metrics.Machine.Metrics.cycles sim.Machine.Sim.exit_code
    (String.length sim.Machine.Sim.output) (digest sim.Machine.Sim.output)

let () = List.iter program Prog_gen.Scale.all_shapes
