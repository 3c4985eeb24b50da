(* hlo_bench: the repository's benchmark.

     hlo_bench run [--workload W]... [--seed N] [--seconds S] [--trace 0|1]
                   [--smoke] [--out FILE]
     hlo_bench compare OLD NEW
     hlo_bench check FILE

   [run] sets each workload up three times, runs one warm-up pass, then
   timed passes with telemetry off for --seconds, then with --trace 1
   one traced pass for the per-layer table.  It prints every metric by
   name and unit, writes the JSON envelope to --out, and ends with a
   one-line JSON result.  It exits 1 when any work failed or a gate was
   violated.  README.md has the glossary. *)

open Cmdliner

(* Set-up's time is a median over this many set-ups. *)
let setups = 3

let measure w ~seed ~seconds ~trace ~smoke =
  let start = Unix.gettimeofday () in
  Parallel.Pool.set_jobs 1;
  let timed_setups =
    List.init (if smoke then 1 else setups) (fun _ -> Pass.timed_setup w ~seed ~smoke)
  in
  let setup = fst (List.hd (List.rev timed_setups)) in
  Pass.reset_peak_rss ();
  (* The warm-up pass grows the heap to its working size, so the timed
     passes start alike; its outputs are checked like the others'. *)
  let warmup = if smoke then [] else [ Pass.run w setup ] in
  (* At least 3 timed passes (1 when smoking); more while the next one,
     at the mean pass time so far, still ends within the measuring
     time. *)
  let min_passes, seconds = if smoke then (1, 0.0) else (3, seconds) in
  let t0 = Unix.gettimeofday () in
  let rec loop acc n =
    let now = Unix.gettimeofday () in
    let mean = if n = 0 then 0.0 else (now -. t0) /. float_of_int n in
    if n >= min_passes && now -. start +. mean > seconds then List.rev acc
    else loop (Pass.run w setup :: acc) (n + 1)
  in
  let passes = loop [] 0 in
  let peak_rss_mb = Pass.peak_rss_mb () in
  let traced =
    if trace then
      Some
        (Pass.run
           ~trace_file:(Filename.concat Pass.out_dir (Workload.name w ^ ".trace.json"))
           w setup)
    else None
  in
  let all = warmup @ passes @ Option.to_list traced in
  { Envelope.workload = w; setups_s = List.map snd timed_setups; passes; traced;
    peak_rss_mb;
    attempted = List.fold_left (fun a (p : Pass.t) -> a + p.Pass.attempted) 0 all;
    failures = List.concat_map (fun (p : Pass.t) -> p.Pass.failures) all;
    violations = Envelope.gate_violations w all }

let print_result (r : Envelope.workload_result) =
  Fmt.pr "== %s: %d pass(es)%s, %d/%d failed, %s ==@." (Workload.name r.Envelope.workload)
    (List.length r.Envelope.passes)
    (if r.Envelope.traced <> None then " + 1 traced" else "")
    (Envelope.failed r) r.Envelope.attempted
    (if Envelope.correct r then "correct" else "NOT CORRECT");
  List.iteri
    (fun i f -> if i < 10 then Fmt.pr "  failure: %s@." f)
    (r.Envelope.violations @ r.Envelope.failures);
  if r.Envelope.passes <> [] then
    List.iter
      (fun (name, unit) ->
        let xs = Envelope.samples r name in
        let q1, m, q3 = Stats.quartiles xs in
        Fmt.pr "  %-16s %14.6g %-6s q1 %.6g  q3 %.6g  n %d@." name m unit q1 q3
          (List.length xs))
      (Envelope.e2e_metrics @ Envelope.extra_metrics);
  Option.iter
    (List.iter (fun (name, unit, v) -> Fmt.pr "  %-30s %14.6g %s@." name v unit))
    (Envelope.layer_values r)

let run workloads seed seconds trace smoke out =
  Pass.ensure_out_dir ();
  let workloads = if workloads = [] then Workload.all else workloads in
  let trace = trace <> 0 in
  let results =
    List.map
      (fun w ->
        let r = measure w ~seed ~seconds ~trace ~smoke in
        print_result r;
        r)
      workloads
  in
  Jsonx.write_file out (Envelope.envelope ~seed ~seconds ~smoke results);
  Fmt.pr "envelope: %s@." out;
  print_endline (Envelope.result_line ~trace results);
  if List.for_all Envelope.correct results then 0 else 1

let compare old new_ =
  let read path =
    match Jsonx.read_file path with Ok j -> j | Error e -> failwith (path ^ ": " ^ e)
  in
  if Envelope.compare_envelopes ~old:(read old) ~new_:(read new_) then 0
  else 1

let check file =
  match Jsonx.read_file file with
  | Error e ->
    Fmt.epr "%s: %s@." file e;
    1
  | Ok env -> (
    match Envelope.check env with
    | [] -> 0
    | problems ->
      List.iter (Fmt.epr "check: %s@.") problems;
      1)

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)

let workload_conv =
  Arg.conv
    ( (fun s ->
        match Workload.of_name s with
        | Some w -> Ok w
        | None -> Error (`Msg ("unknown workload " ^ s))),
      fun ppf w -> Fmt.string ppf (Workload.name w) )

let run_cmd =
  let workloads =
    Arg.(value & opt_all workload_conv []
         & info [ "workload" ] ~docv:"NAME" ~doc:"Workload to run (repeatable; default all).")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Workload seed.") in
  let seconds =
    Arg.(value & opt float 35.0
         & info [ "seconds" ] ~docv:"S"
             ~doc:"Time per workload, set-up included (at least 3 timed passes).")
  in
  let trace =
    Arg.(value & opt int 1
         & info [ "trace" ] ~docv:"0|1"
             ~doc:"1: add a traced pass and end with the per-layer metrics; \
                   0: end with the end-to-end metrics.")
  in
  let smoke =
    Arg.(value & flag
         & info [ "smoke" ]
             ~doc:"Small inputs: one set-up, no warm-up, one timed pass, two \
                   programs per SPEC workload, one 200-routine scale program.")
  in
  let out =
    Arg.(value & opt string (Filename.concat Pass.out_dir "run.json")
         & info [ "out" ] ~docv:"FILE" ~doc:"Where to write the JSON envelope.")
  in
  Cmd.v (Cmd.info "run" ~doc:"Measure workloads and print their metrics.")
    Term.(const run $ workloads $ seed $ seconds $ trace $ smoke $ out)

let compare_cmd =
  let env n = Arg.(required & pos n (some file) None & info [] ~docv:(if n = 0 then "OLD" else "NEW")) in
  Cmd.v (Cmd.info "compare" ~doc:"Per-workload verdict for every end-to-end metric.")
    Term.(const compare $ env 0 $ env 1)

let check_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "check" ~doc:"Every metric BENCHMARK.json names is present and finite.")
    Term.(const check $ file)

let () =
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "hlo_bench" ~doc:"the repository's benchmark")
          [ run_cmd; compare_cmd; check_cmd ]))
