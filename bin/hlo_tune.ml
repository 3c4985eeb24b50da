(* hlo_tune — multi-objective search over the HLO policy space.

     hlo_tune                                # full search, table to stdout
     hlo_tune --seed 7 --samples 32          # bigger, different search
     hlo_tune --json BENCH_pr9.json \
              --policies policies/           # persist results
     hlo_tune --bench compress --bench go \
              --samples 4 --rounds 1 --input train   # smoke

   Same seed (and parameters) ⇒ same fronts, winners, and files,
   whatever --jobs is. *)

open Cmdliner

let tune seed samples rounds mutations stale_rounds input benches jobs json_out
    policy_dir =
  Parallel.Pool.set_jobs jobs;
  let benchmarks = match benches with [] -> None | names -> Some names in
  match
    Experiments.Policy_search.run ~seed ~samples ~rounds ~mutations
      ~stale_rounds ~input ?benchmarks ()
  with
  | exception Failure msg -> `Error (false, msg)
  | exception Invalid_argument msg -> `Error (true, msg)
  | result ->
    print_string (Experiments.Policy_search.to_table result);
    (match json_out with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      output_string oc
        (Telemetry.Json.to_string (Experiments.Policy_search.to_json result));
      output_char oc '\n';
      close_out oc;
      Fmt.pr "wrote %s@." path);
    let save_errors =
      match policy_dir with
      | None -> []
      | Some dir ->
        if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
        List.filter_map
          (fun cr ->
            let path =
              Filename.concat dir
                (String.lowercase_ascii
                   (Workloads.Suite.suite_name
                      cr.Experiments.Policy_search.cr_suite)
                ^ ".policy")
            in
            match
              Policy.save ~path cr.Experiments.Policy_search.cr_winner
            with
            | Ok () ->
              Fmt.pr "wrote %s@." path;
              None
            | Error msg -> Some (path ^ ": " ^ msg))
          result.Experiments.Policy_search.t_classes
    in
    (match save_errors with
    | [] -> `Ok ()
    | errs -> `Error (false, String.concat "; " errs))

module Args = struct
  let seed =
    Arg.(value & opt int 1997
         & info [ "seed" ] ~docv:"N" ~doc:"Random seed for the search.")

  let samples =
    Arg.(value & opt int 16
         & info [ "samples" ] ~docv:"N"
             ~doc:"Random policies drawn per class before local search.")

  let rounds =
    Arg.(value & opt int 3
         & info [ "rounds" ] ~docv:"N"
             ~doc:"Rounds of mutation/local search over the Pareto front.")

  let mutations =
    Arg.(value & opt int 3
         & info [ "mutations" ] ~docv:"N"
             ~doc:"Mutants drawn per front member per round.")

  let stale_rounds =
    Arg.(value & opt int 3
         & info [ "stale-rounds" ] ~docv:"N"
             ~doc:"Stale-profile mutations in the robustness score \
                   (0 skips it).")

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

  let input =
    Arg.(value & opt input_conv Workloads.Suite.Ref
         & info [ "input" ] ~docv:"SET"
             ~doc:"Input size for the timed runs: $(b,train) or $(b,ref).")

  let benches =
    Arg.(value & opt_all string []
         & info [ "bench" ] ~docv:"NAME"
             ~doc:"Restrict the suite to this benchmark (repeatable).")

  let jobs =
    Arg.(value
         & opt Parallel.Jobs_arg.conv
             (min Parallel.Pool.max_jobs (Domain.recommended_domain_count ()))
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains for candidate evaluation.")

  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the machine-readable results (fronts, winners, \
                   per-benchmark numbers) to $(docv).")

  let policy_dir =
    Arg.(value & opt (some string) None
         & info [ "policies" ] ~docv:"DIR"
             ~doc:"Write each class's winning policy to \
                   $(docv)/CLASS.policy (loadable with hloc --policy).")
end

let cmd =
  let doc = "search the HLO policy space for Pareto-better settings" in
  Cmd.v (Cmd.info "hlo_tune" ~version:"1.0" ~doc)
    Term.(ret
            (const tune $ Args.seed $ Args.samples $ Args.rounds
             $ Args.mutations $ Args.stale_rounds $ Args.input $ Args.benches
             $ Args.jobs $ Args.json_out $ Args.policy_dir))

let () = exit (Cmd.eval cmd)
