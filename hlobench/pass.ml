(* One pass of a workload: every program from .mc source to simulated
   cycles — front end, training run, HLO, layout, simulation — with its
   output checked against the reference interpreter's. *)

module C = Telemetry.Collector

let compile sources = fst (Minic.Compile.compile_program sources)

(* A traced pass records one span per public call; untraced, each
   [with_span] is a single branch. *)
let span (p : Workload.program) name f =
  C.with_span ~attrs:[ ("program", Telemetry.Event.Str p.Workload.p_name) ] name f

(* ------------------------------------------------------------------ *)
(* Set-up.                                                             *)

type setup = {
  programs : Workload.program list;
  references : Interp.result list;  (** [Interp.run] of each unoptimized program *)
}

let setup w ~seed ~smoke =
  let programs = Workload.programs w ~seed ~smoke in
  { programs; references = List.map (fun p -> Interp.run (compile p.Workload.p_ref)) programs }

let cpu_timed f =
  let t0 = Calib.cpu () in
  let x = f () in
  (x, Calib.cpu () -. t0)

(* Set-up's CPU time at the nominal host speed. *)
let timed_setup w ~seed ~smoke =
  let (s, cpu), speed, _ =
    Calib.between ~before:(Calib.measure ()) (fun () ->
        cpu_timed (fun () -> setup w ~seed ~smoke))
  in
  (s, cpu *. speed)

(* ------------------------------------------------------------------ *)
(* One program.                                                        *)

type outcome = {
  row : (string * float) list;  (** the values that must repeat exactly *)
  compile_cpu : float;  (** front end + training + HLO *)
  total_cpu : float;  (** compile_cpu + layout + sim *)
  wall : float;
  summary_cache : Hlo.Summary_cache.stats;
  clone_db : Hlo.Clone_db.stats;
}

let run_program ~config (p : Workload.program) (reference : Interp.result) =
  let wall0 = Unix.gettimeofday () in
  (* Each program starts with cold caches, as a fresh hloc would. *)
  Hlo.Summary_cache.clear ();
  Hlo.Clone_db.clear ();
  let (prog, train_prog), minic =
    cpu_timed (fun () ->
        span p "bench.minic" (fun () ->
            let prog = compile p.Workload.p_ref in
            ( prog,
              match p.Workload.p_train with
              | None -> prog
              | Some sources -> compile sources )))
  in
  let trained, train =
    cpu_timed (fun () -> span p "bench.train" (fun () -> Interp.train train_prog))
  in
  let result, hlo =
    cpu_timed (fun () ->
        span p "bench.hlo" (fun () ->
            Hlo.Driver.run ~config ~profile:trained.Interp.profile prog))
  in
  let optimized = result.Hlo.Driver.program in
  let image, layout =
    cpu_timed (fun () -> span p "bench.layout" (fun () -> Machine.Layout.build optimized))
  in
  let sim, sim_s = cpu_timed (fun () -> span p "bench.sim" (fun () -> Machine.Sim.run image)) in
  if
    not
      (String.equal sim.Machine.Sim.output reference.Interp.output
      && Int64.equal sim.Machine.Sim.exit_code reference.Interp.exit_code)
  then failwith "simulated output differs from the reference interpreter's";
  let r = result.Hlo.Driver.report and m = sim.Machine.Sim.metrics in
  let i = float_of_int in
  { row =
      [ ("cycles", i m.Machine.Metrics.cycles);
        ("size", i (Ucode.Size.program_size optimized));
        ("ir_size", i (Ucode.Size.program_size prog));
        ("train_steps", i trained.Interp.steps);
        ("inlines", i r.Hlo.Report.inlines);
        ("clones", i r.Hlo.Report.clones_created);
        ("clone_replacements", i r.Hlo.Report.clone_replacements);
        ("deletions", i r.Hlo.Report.deletions);
        ("residues", i r.Hlo.Report.residue_outlined);
        ("passes", i r.Hlo.Report.passes_run);
        ("cost_before", r.Hlo.Report.cost_before);
        ("cost_after", r.Hlo.Report.cost_after);
        ("instructions", i m.Machine.Metrics.instructions);
        ("icache_accesses", i m.Machine.Metrics.icache_accesses);
        ("icache_misses", i m.Machine.Metrics.icache_misses);
        ("dcache_accesses", i m.Machine.Metrics.dcache_accesses);
        ("dcache_misses", i m.Machine.Metrics.dcache_misses);
        ("branches", i m.Machine.Metrics.branches);
        ("branch_mispredicts", i m.Machine.Metrics.branch_mispredicts) ];
    compile_cpu = minic +. train +. hlo;
    total_cpu = minic +. train +. hlo +. layout +. sim_s;
    wall = Unix.gettimeofday () -. wall0;
    summary_cache = Hlo.Summary_cache.stats ();
    clone_db = Hlo.Clone_db.stats () }

(* ------------------------------------------------------------------ *)
(* One pass.                                                           *)

type t = {
  e2e_s : float;  (** Σ programs' CPU time, at the nominal host speed *)
  compile_s : float;  (** the compile half of [e2e_s] *)
  cpu_s : float;  (** Σ programs' CPU time as measured *)
  wall_s : float;  (** Σ programs' wall time *)
  host_speed : float;  (** the kernel's nominal time / its mean time in the pass *)
  programs : (string * (string * float) list) list;  (** per program, its [row] *)
  program_s : (string * float) list;  (** per program, its share of [e2e_s] *)
  layers : (string * float) list;  (** traced passes only *)
  attempted : int;
  failures : string list;
}

(* The traced pass's layer values: self times from the spans, the
   inline journal's yield, and the cache hit ratios. *)
let traced_layers c (outcomes : outcome list) ~wall_s =
  let spans = C.spans c in
  let self = Layers.self_times spans in
  let hlo_run_s =
    Stats.sum
      (List.filter_map
         (fun (s : Telemetry.Event.span) ->
           if String.equal s.Telemetry.Event.sp_name "bench.hlo" then
             Some (s.Telemetry.Event.sp_dur_us /. 1e6)
           else None)
         spans)
  in
  let inlines accepted =
    float_of_int (C.journal_count c ~kind:Telemetry.Event.Inline ~accepted)
  in
  let hit_ratio hits misses =
    let total f = float_of_int (List.fold_left (fun a o -> a + f o) 0 outcomes) in
    Stats.ratio (total hits) (total hits +. total misses)
  in
  self
  @ [ ("hlo.run_s", hlo_run_s);
      ("hlo.inline_yield", Stats.ratio (inlines true) (inlines true +. inlines false));
      ( "hlo.summary_cache_hit_ratio",
        hit_ratio
          (fun o -> o.summary_cache.Hlo.Summary_cache.hits)
          (fun o -> o.summary_cache.Hlo.Summary_cache.misses) );
      ( "hlo.clone_db_hit_ratio",
        hit_ratio
          (fun o -> o.clone_db.Hlo.Clone_db.hits)
          (fun o -> o.clone_db.Hlo.Clone_db.misses) );
      (* How much of the programs' wall time the spans account for. *)
      ("telemetry.span_coverage", Stats.ratio (Stats.sum (List.map snd self)) wall_s) ]

(* Each program runs between two kernel runs, which give the host's
   speed around it. *)
let run ?trace_file w (s : setup) =
  let config = Workload.hlo_config w in
  let collector = Option.map (fun path -> (path, C.create ())) trace_file in
  Option.iter (fun (_, c) -> C.install c) collector;
  let first = Calib.measure () in
  let before = ref first and kernel_total = ref first and kernels = ref 1 in
  let results =
    List.map2
      (fun p reference ->
        let r, speed, after =
          Calib.between ~before:!before (fun () ->
              match run_program ~config p reference with
              | o -> Ok o
              | exception e -> Error (Printexc.to_string e))
        in
        before := after;
        kernel_total := !kernel_total +. after;
        incr kernels;
        (p.Workload.p_name, r, speed))
      s.programs s.references
  in
  C.uninstall ();
  let ok =
    List.filter_map (function n, Ok o, speed -> Some (n, o, speed) | _, Error _, _ -> None) results
  in
  let sum f = Stats.sum (List.map f ok) in
  let wall_s = sum (fun (_, o, _) -> o.wall) in
  let layers =
    match collector with
    | Some (path, c) ->
      Telemetry.Export.write_file ~path (Telemetry.Export.chrome_string c);
      traced_layers c (List.map (fun (_, o, _) -> o) ok) ~wall_s
    | None -> []
  in
  { e2e_s = sum (fun (_, o, speed) -> o.total_cpu *. speed);
    compile_s = sum (fun (_, o, speed) -> o.compile_cpu *. speed);
    cpu_s = sum (fun (_, o, _) -> o.total_cpu);
    wall_s;
    host_speed = Calib.nominal_s /. (!kernel_total /. float_of_int !kernels);
    programs = List.map (fun (n, o, _) -> (n, o.row)) ok;
    program_s = List.map (fun (n, o, speed) -> (n, o.total_cpu *. speed)) ok;
    layers;
    attempted = List.length results;
    failures =
      List.filter_map (function n, Error e, _ -> Some (n ^ ": " ^ e) | _, Ok _, _ -> None) results }

(* ------------------------------------------------------------------ *)
(* Process-wide measurements.                                          *)

(* Where runs leave envelopes and traces, relative to the repository
   root. *)
let out_dir = Filename.concat "hlobench" "out"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* VmHWM of this process, in MB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_lines
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  |> Option.get

(* Restart VmHWM from the current RSS, so the peak a run reports
   belongs to the passes, not to set-up. *)
let reset_peak_rss () =
  Gc.compact ();
  Out_channel.with_open_text "/proc/self/clear_refs" (fun oc -> output_string oc "5")
