(** The socket layer of `hlod`: a Unix-domain listener, one systhread
    per connection, frames in / frames out, with the {!Service}
    underneath doing all the work.

    Failure policy per connection: a clean EOF or a mid-request
    disconnect just closes that connection; a malformed or oversized
    frame gets a structured [Failed "bad_request"] reply and then the
    connection is dropped (framing is unrecoverable once the byte
    stream is off).  None of these touch the listener — the server
    keeps serving.

    Shutdown (either a [Shutdown] request or {!stop}) drains: new
    compiles are rejected with ["shutting_down"], in-flight compiles
    complete and their responses are delivered, and only then is the
    [Shutting_down] reply sent and the listener closed. *)

type t

(** [start ~socket config] binds [socket] (removing a stale file at
    that path), starts the accept loop in a background thread and
    returns immediately.  SIGPIPE is ignored process-wide — a client
    that disconnects mid-reply must not kill the daemon.
    @raise Unix.Unix_error when the socket cannot be bound. *)
val start : socket:string -> Service.config -> t

val service : t -> Service.t
val socket_path : t -> string

(** Block until the server has shut down (via a [Shutdown] request or
    a concurrent {!stop}) and every connection thread has exited. *)
val wait : t -> unit

(** Drain the service and shut the listener down, then {!wait}.
    Idempotent. *)
val stop : t -> unit

(** [start] + [wait], for `bin/hlod`. *)
val run : socket:string -> Service.config -> unit
