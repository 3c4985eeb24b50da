(** Figure 8: incremental benefit of inlines and clone replacements in
    022.li at various budget levels.

    At each budget (percent growth allowance) the compiler is run
    repeatedly, artificially stopped after k = 0, step, 2*step, ...
    operations; each stop is compiled to the machine and simulated.
    The resulting curves show run time falling as successive
    operations land, flattening once the useful ones are done — the
    validation-of-heuristics experiment of §3.4. *)

type point = {
  operations : int;    (** cap on inline + clone-replacement operations *)
  performed : int;     (** operations actually performed *)
  run_cycles : int;
}

type curve = { budget_percent : float; points : point list }

let default_budgets = [ 25.0; 100.0; 200.0; 1000.0 ]

let run ?input ?(base_config = Hlo.Config.default)
    ?(benchmark = "022.li") ?(budgets = default_budgets) ?(points = 12) () :
    curve list =
  let subject = Subject.of_benchmark ?input (Workloads.Suite.find benchmark) in
  (* HLO at [budget], stopped after [cap] operations ([None]: never). *)
  let evaluate budget max_operations =
    Oracle.Evaluate.evaluate subject
      ~config:
        { base_config with Hlo.Config.budget_percent = budget; max_operations }
  in
  let operations r = Hlo.Report.total_operations r.Oracle.Evaluate.report in
  List.map
    (fun budget ->
      let total = operations (evaluate budget None) in
      let step = max 1 (total / max 1 (points - 1)) in
      let rec caps k acc =
        if k >= total then List.rev (total :: acc) else caps (k + step) (k :: acc)
      in
      let caps = caps 0 [] in
      { budget_percent = budget;
        points =
          List.map
            (fun cap ->
              let r = evaluate budget (Some cap) in
              { operations = cap; performed = operations r;
                run_cycles = r.Oracle.Evaluate.metrics.Machine.Metrics.cycles })
            caps })
    budgets

let to_table (curves : curve list) : string =
  let headers = [ "budget"; "op cap"; "ops done"; "run(cycles)" ] in
  let body =
    List.concat_map
      (fun c ->
        List.map
          (fun p ->
            [ Printf.sprintf "%.0f" c.budget_percent;
              string_of_int p.operations; string_of_int p.performed;
              string_of_int p.run_cycles ])
          c.points)
      curves
  in
  Tables.render ~headers body
