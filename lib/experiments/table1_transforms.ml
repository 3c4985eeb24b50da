(** Table 1: inline and clone information for selected benchmarks at
    the four optimization scopes.

    For each benchmark and each scope — base (per-module, heuristic),
    [c] (cross-module), [p] (profile feedback), [cp] (both) — report
    the number of inlines, clones created, clone replacements and
    routine deletions, the compile-time estimate (in the quadratic cost
    model's units, plus measured wall-clock), and the run time
    (simulated cycles). *)

(** The subset of benchmarks shown in the paper's Table 1. *)
let default_benchmarks =
  [ "008.espresso"; "022.li"; "072.sc"; "085.gcc"; "099.go"; "124.m88ksim";
    "147.vortex" ]

type row = {
  benchmark : string;
  scope : Hlo.Config.scope;
  inlines : int;
  clones : int;
  clone_replacements : int;
  deletions : int;
  compile_cost : float;       (** Σ size² after HLO *)
  compile_seconds : float;
  run_cycles : int;
}

let run_one ~(base_config : Hlo.Config.t) (subject : Oracle.Evaluate.subject)
    (scope : Hlo.Config.scope) : row =
  let config = Hlo.Config.with_scope base_config scope in
  let r = Oracle.Evaluate.evaluate ~config subject in
  let report = r.Oracle.Evaluate.report in
  let train_seconds =
    if config.Hlo.Config.use_profile then subject.Oracle.Evaluate.train_seconds
    else 0.0
  in
  { benchmark = subject.Oracle.Evaluate.name; scope;
    inlines = report.Hlo.Report.inlines;
    clones = report.Hlo.Report.clones_created;
    clone_replacements = report.Hlo.Report.clone_replacements;
    deletions = report.Hlo.Report.deletions;
    compile_cost = report.Hlo.Report.cost_after;
    compile_seconds = r.Oracle.Evaluate.hlo_seconds +. train_seconds;
    run_cycles = r.Oracle.Evaluate.metrics.Machine.Metrics.cycles }

let run ?input ?(base_config = Hlo.Config.default)
    ?(benchmarks = default_benchmarks) () : row list =
  List.concat_map
    (fun name ->
      let subject = Subject.of_benchmark ?input (Workloads.Suite.find name) in
      List.map
        (run_one ~base_config subject)
        [ Hlo.Config.Base; Hlo.Config.C; Hlo.Config.P; Hlo.Config.CP ])
    benchmarks

let to_table (rows : row list) : string =
  let headers =
    [ "benchmark"; "scope"; "inlines"; "clones"; "repls"; "deletions";
      "compile(cost)"; "compile(s)"; "run(cycles)" ]
  in
  let body =
    List.map
      (fun r ->
        [ r.benchmark; Hlo.Config.scope_name r.scope;
          string_of_int r.inlines; string_of_int r.clones;
          string_of_int r.clone_replacements; string_of_int r.deletions;
          Printf.sprintf "%.0f" r.compile_cost;
          Tables.f2 r.compile_seconds; string_of_int r.run_cycles ])
      rows
  in
  Tables.render ~aligns:[ Tables.Left; Tables.Left ] ~headers body
