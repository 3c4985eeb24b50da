(** The §3.5 scaling study: does aggressive inlining keep paying off —
    and keep its compile-time appetite in check — as programs grow?

    The paper reports that the speedups seen on SPEC "can also be
    obtained in large production codes" (a 500k-line kernel).  We sweep
    the three call-graph shapes of {!Prog_gen.Scale} (wide, deep, scc)
    at seed 1 from a couple of dozen routines up to production-like
    call-graph sizes and record, for each program: the static shape,
    HLO's activity under the default budget, the achieved speedup over
    a no-inline/no-clone compile, and the compiler's wall-clock. *)

type row = {
  sc_shape : Prog_gen.Scale.shape;
  sc_routines : int;
  sc_call_sites : int;
  sc_instructions : int;
  sc_operations : int;   (** inlines + clone replacements *)
  sc_cost_growth : float;  (** cost_after / cost_before *)
  sc_speedup : float;      (** cycles(neither) / cycles(default HLO) *)
  sc_compile_seconds : float;
}

let run_one ~shape ~routines : row =
  let program =
    fst
      (Minic.Compile.compile_program
         (Prog_gen.Scale.sources shape ~routines ~seed:1))
  in
  let name =
    Printf.sprintf "scale/%s-%d" (Prog_gen.Scale.shape_name shape) routines
  in
  let subject = Oracle.Evaluate.prepare ~name ~train:program program in
  let evaluate transforms =
    let config = Fig6_speedup.config_of_transforms transforms in
    Oracle.Evaluate.evaluate ~config subject
  in
  let res = evaluate Fig6_speedup.Both in
  let baseline = evaluate Fig6_speedup.Neither in
  let cycles r = r.Oracle.Evaluate.metrics.Machine.Metrics.cycles in
  let report = res.Oracle.Evaluate.report in
  let cg = Ucode.Callgraph.build program in
  { sc_shape = shape;
    sc_routines = List.length program.Ucode.Types.p_routines;
    sc_call_sites = Ucode.Callgraph.total_sites cg;
    sc_instructions = Ucode.Size.program_size program;
    sc_operations = Hlo.Report.total_operations report;
    sc_cost_growth =
      (if report.Hlo.Report.cost_before > 0.0 then
         report.Hlo.Report.cost_after /. report.Hlo.Report.cost_before
       else 1.0);
    sc_speedup = float_of_int (cycles baseline) /. float_of_int (cycles res);
    sc_compile_seconds = res.Oracle.Evaluate.hlo_seconds }

let default_sizes = [ 25; 100; 400; 1000 ]

let run ?(sizes = default_sizes) () : row list =
  List.concat_map
    (fun shape -> List.map (fun routines -> run_one ~shape ~routines) sizes)
    Prog_gen.Scale.all_shapes

let to_table (rows : row list) : string =
  Tables.render
    ~headers:[ "shape"; "routines"; "sites"; "instrs"; "ops"; "cost growth";
               "speedup"; "compile(s)" ]
    (List.map
       (fun r ->
         [ Prog_gen.Scale.shape_name r.sc_shape; string_of_int r.sc_routines;
           string_of_int r.sc_call_sites; string_of_int r.sc_instructions;
           string_of_int r.sc_operations; Tables.f2 r.sc_cost_growth;
           Tables.f2 r.sc_speedup; Tables.f2 r.sc_compile_seconds ])
       rows)
