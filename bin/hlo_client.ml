(* hlo_client: command-line client for a running hlod daemon.

     hlo_client compile a.mc b.mc --stats         # hloc-compatible output
     hlo_client stats                             # server statistics JSON
     hlo_client ping
     hlo_client shutdown                          # graceful drain

   A compile served here prints exactly what `hloc` would print for
   the same flags — the daemon renders through the same code. *)

open Cmdliner

module P = Serve.Protocol

let resolve_socket = function
  | Some s -> s
  | None -> Serve.Client.default_socket ()

let with_client socket f =
  match Serve.Client.connect (resolve_socket socket) with
  | Error msg -> `Error (false, msg)
  | Ok client ->
    Fun.protect ~finally:(fun () -> Serve.Client.close client) (fun () ->
        f client)

let compile files knobs policy dump_ir dump_asm dump_profile dump_journal
    stats runner main socket verbose =
  let modules = List.map Serve.Pipeline.read_module files in
  let base = knobs Policy.default in
  match Policy.with_file base policy with
  | Error msg -> `Error (false, msg)
  | Ok co_config ->
  let options =
    { P.co_config; co_main = main; co_runner = runner; co_stats = stats;
      co_dump_ir = dump_ir; co_dump_profile = dump_profile;
      co_dump_asm = dump_asm; co_dump_journal = dump_journal }
  in
  with_client socket @@ fun client ->
  match Serve.Client.roundtrip client (P.Compile { modules; options }) with
  | Error msg -> `Error (false, msg)
  | Ok (P.Compiled { outputs; cache; key; queued; elapsed_us }) ->
    if verbose then
      Fmt.epr "[serve] cache=%s key=%s queued=%b elapsed_us=%.0f@." cache key
        queued elapsed_us;
    Serve.Pipeline.print outputs;
    `Ok ()
  | Ok (P.Failed { reason; outputs; _ }) ->
    Serve.Pipeline.print outputs;
    `Error (false, reason)
  | Ok (P.Rejected rj) ->
    `Error
      (false,
       Printf.sprintf "rejected (%s): %s" rj.P.rj_kind rj.P.rj_reason)
  | Ok _ -> `Error (false, "unexpected response")

let stats socket =
  with_client socket @@ fun client ->
  match Serve.Client.roundtrip client P.Stats with
  | Ok (P.Stats_reply json) ->
    print_endline (Telemetry.Json.to_string json);
    `Ok ()
  | Ok _ -> `Error (false, "unexpected response")
  | Error msg -> `Error (false, msg)

let ping socket =
  with_client socket @@ fun client ->
  match Serve.Client.roundtrip client P.Ping with
  | Ok P.Pong ->
    print_endline "pong";
    `Ok ()
  | Ok _ -> `Error (false, "unexpected response")
  | Error msg -> `Error (false, msg)

let shutdown socket =
  with_client socket @@ fun client ->
  match Serve.Client.roundtrip client P.Shutdown with
  | Ok P.Shutting_down ->
    print_endline "shutting down";
    `Ok ()
  | Ok _ -> `Error (false, "unexpected response")
  | Error msg -> `Error (false, msg)

(* ------------------------------------------------------------------ *)

let socket =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Daemon socket (default: $(b,HLOD_SOCKET), else the \
                 per-user temp path `hlod` also defaults to).")

let files =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
         ~doc:"MiniC source modules; the module name is the file basename.")

let policy =
  Arg.(value & opt (some file) None
       & info [ "policy" ] ~docv:"FILE"
           ~doc:"Apply a tuned HLO policy ($(docv) as for `hloc --policy`) \
                 on top of the knob flags, exactly as `hloc --policy` \
                 does.")

let dump_ir =
  Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the optimized ucode.")

let dump_asm =
  Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print the VR32 disassembly.")

let dump_profile =
  Arg.(value & flag
       & info [ "dump-profile" ] ~doc:"Print the training profile database.")

let dump_journal =
  Arg.(value & flag
       & info [ "dump-journal" ]
           ~doc:"Print the optimizer decision journal (one line per \
                 decision, deterministic).")

let stats_flag =
  Arg.(value & flag
       & info [ "stats" ] ~doc:"Print transformation and run statistics.")

let runner =
  Arg.(value & opt (enum P.runners) P.Run_sim
       & info [ "run" ] ~docv:"ENGINE"
           ~doc:"Execute the result: $(b,interp), $(b,sim) or $(b,none).")

let entry_name =
  Arg.(value & opt string "main"
       & info [ "main" ] ~docv:"NAME" ~doc:"Entry routine.")

let verbose =
  Arg.(value & flag
       & info [ "verbose" ]
           ~doc:"Print a $(b,[serve]) line (cache verdict, key, queueing) \
                 to stderr.")

let compile_cmd =
  let doc = "compile MiniC modules through the daemon" in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(ret
            (const compile $ files $ Policy.term ~all:false $ policy $ dump_ir
            $ dump_asm
            $ dump_profile $ dump_journal $ stats_flag $ runner $ entry_name
            $ socket $ verbose))

let stats_cmd =
  let doc = "print server statistics as JSON" in
  Cmd.v (Cmd.info "stats" ~doc) Term.(ret (const stats $ socket))

let ping_cmd =
  let doc = "check that the daemon is alive" in
  Cmd.v (Cmd.info "ping" ~doc) Term.(ret (const ping $ socket))

let shutdown_cmd =
  let doc = "drain in-flight requests and stop the daemon" in
  Cmd.v (Cmd.info "shutdown" ~doc) Term.(ret (const shutdown $ socket))

let cmd =
  let doc = "client for the hlod compile daemon" in
  Cmd.group
    (Cmd.info "hlo_client" ~version:"1.0" ~doc)
    [ compile_cmd; stats_cmd; ping_cmd; shutdown_cmd ]

let () = exit (Cmd.eval cmd)
