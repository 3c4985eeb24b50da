(* hlod: the compile/optimize daemon.

   Binds a Unix-domain socket and serves the hlod1 protocol: compile
   requests (bit-identical to `hloc` whole-program mode), stats, ping
   and graceful shutdown.  The process owns the warm domain pool, the
   cross-request summary cache and clone database, and a
   content-addressed artifact store, so repeated compiles of the same
   modules are served without compiling at all.

     hlod --socket /tmp/hlod.sock --jobs 4 &
     hloc a.mc b.mc --stats --daemon require --daemon-socket /tmp/hlod.sock
     hlo_client shutdown --socket /tmp/hlod.sock *)

open Cmdliner

let serve socket jobs request_budget queue_limit artifact_dir artifact_cap
    max_frame verbose =
  let socket =
    match socket with Some s -> s | None -> Serve.Client.default_socket ()
  in
  let jobs = if jobs > 0 then jobs else Parallel.Pool.get_jobs () in
  let config =
    { Serve.Service.jobs; request_budget; queue_limit;
      artifact_dir; artifact_cap; max_frame }
  in
  (* SIGINT/SIGTERM are blocked before the server spawns any thread
     (threads inherit the mask), so no thread ever runs an OCaml signal
     handler; one dedicated thread takes them with [Thread.wait_signal]
     and drains the server from ordinary code.  An idle daemon blocked
     in accept(2) and join therefore still shuts down on a signal. *)
  let signals = [ Sys.sigint; Sys.sigterm ] in
  ignore (Thread.sigmask Unix.SIG_BLOCK signals : int list);
  match Serve.Server.start ~socket config with
  | exception Unix.Unix_error (e, _, _) ->
    `Error
      (false,
       Printf.sprintf "cannot listen on %s: %s" socket (Unix.error_message e))
  | server ->
    if verbose then
      Fmt.epr "[hlod] listening on %s (jobs=%d queue-limit=%d)@." socket
        jobs queue_limit;
    ignore
      (Thread.create
         (fun () ->
           ignore (Thread.wait_signal signals : int);
           Serve.Server.stop server)
         ()
        : Thread.t);
    Serve.Server.wait server;
    if verbose then Fmt.epr "[hlod] shut down@.";
    `Ok ()

let socket =
  Arg.(value & opt (some string) None
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to listen on (default: \
                 $(b,HLOD_SOCKET), else a per-user path in the temp \
                 directory).")

let jobs =
  Arg.(value & opt Parallel.Jobs_arg.conv 0
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Compile with $(docv) parallel domains.  0 (the default) \
                 means: use the HLO_JOBS environment variable, else 1.")

let request_budget =
  Arg.(value
       & opt float Serve.Service.default_config.Serve.Service.request_budget
       & info [ "request-budget" ] ~docv:"UNITS"
           ~doc:"Largest Σ size² estimate a single request may carry; \
                 bigger requests are rejected, not queued.")

let queue_limit =
  Arg.(value & opt int Serve.Service.default_config.Serve.Service.queue_limit
       & info [ "queue-limit" ] ~docv:"N"
           ~doc:"How many compile requests may wait, in arrival order, \
                 while another compiles; requests beyond it are rejected \
                 with $(b,queue_full).")

let artifact_dir =
  Arg.(value & opt (some string) None
       & info [ "artifact-dir" ] ~docv:"DIR"
           ~doc:"Persist compile artifacts (content-addressed) under \
                 $(docv), surviving daemon restarts.")

let artifact_cap =
  Arg.(value & opt (some int) None
       & info [ "artifact-cap" ] ~docv:"N"
           ~doc:"Keep at most $(docv) artifacts per tier: the in-memory \
                 table evicts least-recently-used entries and the \
                 $(b,--artifact-dir) directory drops its oldest files.  \
                 Unset means unbounded.")

let max_frame =
  Arg.(value & opt int Serve.Protocol.default_max_frame
       & info [ "max-frame" ] ~docv:"BYTES"
           ~doc:"Largest accepted request payload.")

let verbose =
  Arg.(value & flag & info [ "verbose" ] ~doc:"Log lifecycle to stderr.")

let cmd =
  let doc = "compile-as-a-service daemon for MiniC (the hloc pipeline)" in
  let info = Cmd.info "hlod" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(ret
            (const serve $ socket $ jobs $ request_budget $ queue_limit
            $ artifact_dir $ artifact_cap $ max_frame
            $ verbose))

let () = exit (Cmd.eval cmd)
