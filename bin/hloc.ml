(* hloc: the MiniC compiler driver.

   Compiles one or more .mc modules, links them, optionally runs the
   instrumented training interpreter to gather PBO data, applies HLO
   inlining and cloning at the requested scope and budget, and then
   either dumps the result or executes it (IR interpreter or VR32
   machine simulator).

     hloc a.mc b.mc --scope cp --budget 100 --run sim --stats

   The isom path (the paper's separate-compilation model):

     hloc -c a.mc b.isom            # compile one module to a.isom
     hloc --link a.isom b.isom      # link isoms, then HLO as usual
     hloc --incremental a.mc b.mc   # manifest-driven rebuild + link

   All three produce bit-identical results to the whole-program
   compile: the same front-end stages run either way, the linked
   program goes through the same Serve.Pipeline steps the daemon
   runs, and profile fragments stored in isoms are only used when
   every module has one. *)

open Cmdliner
module P = Serve.Protocol
module Pipeline = Serve.Pipeline

type trace_format = Trace_chrome | Trace_jsonl
type mode = Whole | Compile_only | Link_isoms | Incremental

let is_isom_path path = Filename.check_suffix path ".isom"

let source_of_path path =
  let module_name, text = Pipeline.read_module path in
  Minic.Compile.source ~module_name text

(* Classify command-line inputs for the isom modes: [.isom] files are
   read (fatally — if you named an object file you meant it), anything
   else is MiniC source. *)
let classify_inputs files =
  List.map
    (fun path ->
      if is_isom_path path then
        match Isom.File.read ~path with
        | Ok i -> (path, Isom.Build.Obj i)
        | Error msg -> raise (Sys_error msg)
      else (path, Isom.Build.Src (source_of_path path)))
    files

type daemon_mode = Daemon_off | Daemon_auto | Daemon_require

(* A failed compile prints the pieces it produced before the failure,
   then exits with its reason. *)
let failed reason outputs =
  Pipeline.print outputs;
  `Error (false, reason)

(* Route an eligible compile through a running hlod.  [Ok result] is a
   final answer (success or a faithfully replayed failure); [Error msg]
   means "no usable daemon" — `--daemon auto` falls back to the
   in-process pipeline, `--daemon require` reports [msg]. *)
let try_daemon ~socket ~files options =
  let socket =
    match socket with Some s -> s | None -> Serve.Client.default_socket ()
  in
  if not (Serve.Client.probe socket) then
    Error (Printf.sprintf "no hlod daemon answering at %s" socket)
  else
    match Serve.Client.connect socket with
    | Error msg -> Error msg
    | Ok client ->
      Fun.protect ~finally:(fun () -> Serve.Client.close client) @@ fun () ->
      let modules = List.map Pipeline.read_module files in
      (match Serve.Client.roundtrip client (P.Compile { modules; options }) with
      | Error msg -> Error ("daemon request failed: " ^ msg)
      | Ok (P.Compiled { outputs; _ }) ->
        Pipeline.print outputs;
        Ok (`Ok ())
      | Ok (P.Failed { reason; outputs; _ }) -> Ok (failed reason outputs)
      | Ok (P.Rejected rj) ->
        Ok
          (`Error
            (false,
             Printf.sprintf "daemon rejected the request (%s): %s"
               rj.P.rj_kind rj.P.rj_reason))
      | Ok _ -> Error "daemon sent an unexpected response")

(* -c: write each source module's isom; .isom inputs only provide
   exports. *)
let compile_isoms ~files ~output ~stats =
  let inputs = classify_inputs files in
  let n_sources =
    List.length
      (List.filter
         (fun (_, i) -> match i with Isom.Build.Obj _ -> false | _ -> true)
         inputs)
  in
  if output <> None && n_sources <> 1 then
    `Error (false, "-o requires exactly one source module")
  else begin
    let isoms, diags = Isom.Build.compile_inputs (List.map snd inputs) in
    Pipeline.print [ Pipeline.diag diags ];
    List.iter2
      (fun (path, input) isom ->
        match input with
        | Isom.Build.Obj _ -> ()
        | _ ->
          let out =
            match output with
            | Some o -> o
            | None -> Filename.remove_extension path ^ ".isom"
          in
          (match Isom.File.write ~path:out isom with
          | Ok () -> if stats then Fmt.pr "[isom] wrote %s@." out
          | Error msg -> raise (Sys_error msg)))
      inputs isoms;
    `Ok ()
  end

(* The linked program for an optimizing mode, its diag piece, and —
   for isom links — the fragment maps, the isoms on disk that can
   receive profile fragments, and the profile seeded from their
   fragments. *)
let link_program mode ~files ~main ~isom_dir ~stats =
  match mode with
  | Compile_only -> assert false
  | Whole ->
    let program, diag =
      Pipeline.front_end ~main (List.map Pipeline.read_module files)
    in
    (program, diag, None)
  | Link_isoms ->
    let inputs = classify_inputs files in
    let isoms, diags = Isom.Build.compile_inputs (List.map snd inputs) in
    let program, maps, seed = Isom.Build.link ~main isoms in
    (* Only inputs that exist as .isom files on disk can receive
       profile fragments later; sources compiled on the fly are
       linked but not persisted. *)
    let paired =
      List.filter_map
        (fun ((path, input), isom) ->
          match input with Isom.Build.Obj _ -> Some (path, isom) | _ -> None)
        (List.combine inputs isoms)
    in
    (program, [ Pipeline.diag diags ], Some (maps, paired, seed))
  | Incremental ->
    let isoms, diags, st =
      Isom.Build.compile_incremental ~dir:isom_dir
        (List.map source_of_path files)
    in
    if stats then begin
      Fmt.pr "[isom] reused=%d recompiled=%d@."
        (List.length st.Isom.Build.s_reused)
        (List.length st.Isom.Build.s_recompiled);
      List.iter
        (fun (m, reason) -> Fmt.pr "[isom] recompiled %s: %s@." m reason)
        st.Isom.Build.s_recompiled
    end;
    let program, maps, seed = Isom.Build.link ~main isoms in
    let paired =
      List.map
        (fun i ->
          ( Filename.concat isom_dir (Isom.File.file_name (Isom.File.name i)),
            i ))
        isoms
    in
    (program, [ Pipeline.diag diags ], Some (maps, paired, seed))

(* Every optimizing mode: link, then the shared pipeline's two steps
   with the isom profile hooks between them. *)
let optimize mode ~files ~(options : P.compile_options) ~isom_dir
    ~write_profiles =
  let stats = options.P.co_stats in
  let program, diag, link_info =
    link_program mode ~files ~main:options.P.co_main ~isom_dir ~stats
  in
  Pipeline.print diag;
  let use_profile = options.P.co_config.Hlo.Config.use_profile in
  let profile, trained =
    match link_info with
    | Some (_, _, Some seed) when use_profile ->
      (* Every isom carried a fragment from an earlier training run
         over these exact module bodies; merging them reproduces that
         profile, so skip retraining. *)
      if stats then Fmt.pr "[isom] profile seeded from module fragments@.";
      (seed, false)
    | _ ->
      let profile, pieces = Pipeline.profile options program in
      Pipeline.print pieces;
      (profile, use_profile)
  in
  (match link_info with
  | Some (maps, paired, _) when write_profiles ->
    if not trained then begin
      if stats then Fmt.pr "[isom] profile fragments unchanged@."
    end
    else (
      match Isom.Build.write_fragments paired ~maps ~profile with
      | Ok () ->
        if stats then
          Fmt.pr "[isom] wrote %d profile fragments@." (List.length paired)
      | Error msg -> Fmt.epr "hloc: cannot write profile fragments: %s@." msg)
  | Some _ -> ()
  | None ->
    if write_profiles then
      Fmt.epr "hloc: ignoring --write-profiles (whole-program mode)@.");
  Pipeline.print (Pipeline.optimize_and_run options ~profile program)

let compile_and_run files knobs policy_file dump_policy dump_ir dump_asm
    dump_profile dump_journal stats runner main trace trace_format
    telemetry_summary jobs summary_cache compile_only link_isoms incremental
    isom_dir output write_profiles daemon daemon_socket =
  (* The policy file (when given) decodes onto the flag-built record, so
     its keys win over --budget, --passes and --inline-mode; scope and
     transform switches stay with the flags. *)
  let base = knobs Hlo.Config.default in
  match Policy.with_file base policy_file with
  | Error msg -> `Error (false, msg)
  | Ok config ->
  if dump_policy then begin
    print_string (Policy.to_string config);
    `Ok ()
  end
  else if files = [] then `Error (true, "no input files")
  else
  match
    (match (compile_only, link_isoms, incremental) with
    | true, true, _ | true, _, true | _, true, true ->
      Error "at most one of -c, --link and --incremental may be given"
    | true, false, false -> Ok Compile_only
    | false, true, false -> Ok Link_isoms
    | false, false, true ->
      if List.exists is_isom_path files then
        Error "--incremental recompiles from source; pass .mc files, not .isom"
      else Ok Incremental
    | false, false, false ->
      (* Naming an object file implies linking. *)
      Ok (if List.exists is_isom_path files then Link_isoms else Whole))
  with
  | Error msg -> `Error (false, msg)
  | Ok mode when output <> None && mode <> Compile_only ->
    ignore mode; `Error (false, "-o is only meaningful with -c")
  | Ok mode ->
  let options =
    { P.co_config = config; co_main = main; co_runner = runner;
      co_stats = stats; co_dump_ir = dump_ir; co_dump_profile = dump_profile;
      co_dump_asm = dump_asm; co_dump_journal = dump_journal }
  in
  (* Daemon routing: whole-program compiles whose only side effects are
     the printed outputs can be served by a running hlod — the daemon
     runs the same pipeline, so the bytes are identical.  Modes that
     write files (isom objects, traces, profile fragments, the summary
     cache) stay in-process. *)
  let daemon_eligible =
    mode = Whole && trace = None && (not telemetry_summary)
    && summary_cache = None && (not write_profiles)
  in
  let daemon_verdict =
    match daemon with
    | Daemon_off -> `In_process
    | (Daemon_auto | Daemon_require) when not daemon_eligible ->
      if daemon = Daemon_require then
        `Fail
          "--daemon require: this invocation is not daemon-eligible \
           (isom modes, --trace, --telemetry-summary, --summary-cache \
           and --write-profiles run in-process)"
      else `In_process
    | Daemon_auto | Daemon_require -> (
      match try_daemon ~socket:daemon_socket ~files options with
      | Ok result -> `Served result
      | Error msg ->
        if daemon = Daemon_require then `Fail msg else `In_process)
  in
  match daemon_verdict with
  | `Served result -> result
  | `Fail msg -> `Error (false, msg)
  | `In_process ->
  (* Parallelism: [--jobs N] overrides the HLO_JOBS environment
     default.  Results are bit-identical at any degree (the pool's
     maps are order-preserving); only wall-clock changes. *)
  if jobs > 0 then Parallel.Pool.set_jobs jobs;
  (* Summary cache: warm the memo store from disk before compiling and
     persist it afterwards — including on a failed compile, since
     entries computed before the failure are still valid. *)
  (match summary_cache with
  | None -> ()
  | Some path ->
    (match Hlo.Summary_cache.load path with
    | Ok n -> if stats && n > 0 then Fmt.pr "[cache] loaded %d summaries@." n
    | Error msg -> Fmt.epr "hloc: ignoring summary cache: %s@." msg));
  let save_summary_cache () =
    match summary_cache with
    | None -> ()
    | Some path ->
      (match Hlo.Summary_cache.save path with
      | Ok () -> ()
      | Error msg -> Fmt.epr "hloc: cannot write summary cache: %s@." msg)
  in
  Fun.protect ~finally:save_summary_cache @@ fun () ->
  (* Telemetry: install a collector when any observability flag is on
     (the decision journal needs one too); export/summarize even if the
     compile or the run traps. *)
  let collector =
    if trace <> None || telemetry_summary || dump_journal then begin
      let c = Telemetry.Collector.create () in
      Telemetry.Collector.install c;
      Some c
    end
    else None
  in
  let finish_telemetry () =
    match collector with
    | None -> ()
    | Some c ->
      Telemetry.Collector.uninstall ();
      (match trace with
      | None -> ()
      | Some path ->
        let contents =
          match trace_format with
          | Trace_chrome -> Telemetry.Export.chrome_string c
          | Trace_jsonl -> Telemetry.Export.jsonl c
        in
        (* Runs from Fun.protect's finally: an unwritable path must not
           turn into an "internal error" backtrace. *)
        try Telemetry.Export.write_file ~path contents
        with Sys_error msg -> Fmt.epr "hloc: cannot write trace: %s@." msg);
      if telemetry_summary then Fmt.pr "%a@." Telemetry.Summary.pp c
  in
  Fun.protect ~finally:finish_telemetry @@ fun () ->
  match
    Pipeline.guard (fun () ->
        match mode with
        | Compile_only -> compile_isoms ~files ~output ~stats
        | Whole | Link_isoms | Incremental ->
          optimize mode ~files ~options ~isom_dir ~write_profiles;
          `Ok ())
  with
  | result -> result
  | exception Pipeline.Failed { reason; outputs; _ } -> failed reason outputs

let files =
  Arg.(value & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"MiniC source modules ($(b,.mc)) and/or isom object files \
               ($(b,.isom)); the module name is the file basename.  \
               Required except with $(b,--dump-policy).")

let policy_file =
  Arg.(value & opt (some string) None
       & info [ "policy" ] ~docv:"FILE"
           ~doc:"Load a tuned HLO policy (written by $(b,hlo_tune) or \
                 $(b,--dump-policy) plus $(b,Policy.save)) and apply its \
                 knobs — budget, staging, pass limit, heuristic \
                 thresholds, stage order — overriding $(b,--budget), \
                 $(b,--passes) and any mode key it carries.  Scope and \
                 transform switches still come from the flags.")

let dump_policy =
  Arg.(value & flag
       & info [ "dump-policy" ]
           ~doc:"Print the effective policy in its canonical text form \
                 and exit without compiling.  Composes with the tuning \
                 flags and $(b,--policy), so it shows exactly what a \
                 compile with the same flags would use.")

let dump_ir =
  Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the optimized ucode.")

let dump_asm =
  Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print the VR32 disassembly.")

let dump_profile =
  Arg.(value & flag
       & info [ "dump-profile" ]
           ~doc:"Print the training profile database (block and call-site                  counts).")

let dump_journal =
  Arg.(value & flag
       & info [ "dump-journal" ]
           ~doc:"Print the optimizer decision journal: one line per \
                 inline/clone decision, deterministic (no wall-clock), \
                 identical whether the compile runs in-process or in a \
                 daemon.")

let stats =
  Arg.(value & flag & info [ "stats" ] ~doc:"Print transformation and run statistics.")

let runner =
  Arg.(value
       & opt (enum P.runners) P.Run_sim
       & info [ "run" ] ~docv:"ENGINE"
           ~doc:"Execute the result: $(b,interp), $(b,sim) or $(b,none).")

let entry_name =
  Arg.(value & opt string "main"
       & info [ "main" ] ~docv:"NAME" ~doc:"Entry routine.")

let trace =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record telemetry (per-phase spans, counters and the \
                 optimizer decision journal) and write it to $(docv) on \
                 exit; the format is chosen by $(b,--trace-format).")

let trace_format =
  let parse = function
    | "chrome" -> Ok Trace_chrome
    | "jsonl" -> Ok Trace_jsonl
    | s -> Error (`Msg ("unknown trace format " ^ s))
  in
  let print ppf = function
    | Trace_chrome -> Fmt.string ppf "chrome"
    | Trace_jsonl -> Fmt.string ppf "jsonl"
  in
  Arg.(value
       & opt (conv (parse, print)) Trace_chrome
       & info [ "trace-format" ] ~docv:"FORMAT"
           ~doc:"Trace file format: $(b,chrome) (a chrome://tracing / \
                 Perfetto trace.json) or $(b,jsonl) (one JSON event per \
                 line).")

let telemetry_summary =
  Arg.(value & flag
       & info [ "telemetry-summary" ]
           ~doc:"Print a human-readable summary of phase timings, \
                 counters and optimizer decisions.")

let jobs =
  Arg.(value & opt int 0
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Compile with $(docv) parallel domains (front end and \
                 scalar optimizer).  The output is bit-identical at any \
                 $(docv).  0 (the default) means: use the HLO_JOBS \
                 environment variable, else 1.")

let summary_cache =
  Arg.(value & opt (some string) None
       & info [ "summary-cache" ] ~docv:"PATH"
           ~doc:"Persist the content-hashed routine summary cache to \
                 $(docv): load it before compiling (if it exists) and \
                 save it back on exit, so repeated compiles of \
                 overlapping code skip recomputing summaries.")

let compile_only =
  Arg.(value & flag
       & info [ "c"; "compile-only" ]
           ~doc:"Compile each source module to an isom object file and stop \
                 (no link, no optimization, no run).  $(b,.isom) arguments \
                 contribute their exports but are not rewritten.")

let link_isoms =
  Arg.(value & flag
       & info [ "link" ]
           ~doc:"Link isom object files (compiling any $(b,.mc) arguments \
                 on the fly) and continue with the usual HLO pipeline.  \
                 Implied when any argument is a $(b,.isom) file.")

let incremental =
  Arg.(value & flag
       & info [ "incremental" ]
           ~doc:"Build the given source modules through the isom directory \
                 (see $(b,--isom-dir)): modules whose source and imported \
                 exports are unchanged since the last build are loaded from \
                 their isom instead of recompiled, then everything is \
                 linked and optimized as usual.  The result is bit-identical \
                 to a whole-program compile.")

let isom_dir =
  Arg.(value & opt string "_isom"
       & info [ "isom-dir" ] ~docv:"DIR"
           ~doc:"Directory holding isom object files and the build manifest \
                 for $(b,--incremental).")

let output =
  Arg.(value & opt (some string) None
       & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output path for $(b,-c) (requires exactly one source \
                 module; default: the source path with a $(b,.isom) \
                 extension).")

let write_profiles =
  Arg.(value & flag
       & info [ "write-profiles" ]
           ~doc:"After training, slice the profile per module and store \
                 each module's fragment into its isom file, so later links \
                 of the same isoms can skip training.")

let daemon =
  let parse = function
    | "off" -> Ok Daemon_off
    | "auto" -> Ok Daemon_auto
    | "require" -> Ok Daemon_require
    | s -> Error (`Msg ("unknown daemon mode " ^ s))
  in
  let print ppf = function
    | Daemon_off -> Fmt.string ppf "off"
    | Daemon_auto -> Fmt.string ppf "auto"
    | Daemon_require -> Fmt.string ppf "require"
  in
  Arg.(value
       & opt (conv (parse, print)) Daemon_off
       & info [ "daemon" ] ~docv:"MODE"
           ~doc:"Route eligible compiles through a running $(b,hlod): \
                 $(b,off) (never), $(b,auto) (use the daemon when one \
                 answers, else compile in-process), $(b,require) (fail if \
                 no daemon serves the request).  The output is identical \
                 either way.")

let daemon_socket =
  Arg.(value & opt (some string) None
       & info [ "daemon-socket" ] ~docv:"PATH"
           ~doc:"Socket of the $(b,hlod) daemon (default: \
                 $(b,HLOD_SOCKET), else the per-user temp path).")

let cmd =
  let doc = "profile-guided cross-module inlining and cloning for MiniC" in
  let info = Cmd.info "hloc" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(ret
            (const compile_and_run $ files $ Policy.term ~all:false
            $ policy_file $ dump_policy
            $ dump_ir $ dump_asm $ dump_profile
            $ dump_journal $ stats $ runner $ entry_name $ trace $ trace_format
            $ telemetry_summary $ jobs $ summary_cache $ compile_only
            $ link_isoms $ incremental $ isom_dir $ output $ write_profiles
            $ daemon $ daemon_socket))

let () = exit (Cmd.eval cmd)
