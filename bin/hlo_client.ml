(* hlo_client: command-line client for a running hlod daemon.

     hlo_client stats                             # server statistics JSON
     hlo_client ping
     hlo_client shutdown                          # graceful drain

   Compiles go through `hloc --daemon require`, which sends the same
   request with the same flags and prints what an in-process `hloc`
   prints. *)

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
    [ stats_cmd; ping_cmd; shutdown_cmd ]

let () = exit (Cmd.eval cmd)
