(** The hlod wire protocol: length-prefixed JSON frames over a stream.

    A frame is one ASCII header line

      hlod1 <payload-length>\n

    followed by exactly [payload-length] bytes of JSON.  The magic
    carries the protocol version (a server and client from different
    releases fail loudly instead of mis-parsing), the explicit length
    makes framing unambiguous without escaping, and the header stays
    printable so a hexdump of a socket capture reads itself.

    Reading is fail-safe in the {!Store} tradition: a malformed header,
    an oversized announced length or a truncated payload come back as
    values ([Closed] / [Malformed] / [Oversized]), never an exception,
    so a server can answer garbage with a structured error and keep
    serving. *)

val magic : string
(** ["hlod1"] — bumped when the frame or message format changes. *)

val default_max_frame : int
(** Default cap on payload bytes (16 MiB). *)

type frame_error =
  | Closed  (** clean EOF before the first header byte *)
  | Truncated  (** EOF inside the header or payload *)
  | Malformed of string  (** bad magic or unparsable length *)
  | Oversized of { announced : int; limit : int }

val frame_error_to_string : frame_error -> string

(** [read_frame ?max_bytes ic] reads one frame payload. *)
val read_frame : ?max_bytes:int -> in_channel -> (string, frame_error) result

(** [write_frame oc payload] writes header + payload and flushes. *)
val write_frame : out_channel -> string -> unit

(** {1 Messages} *)

(** How the compiled program is executed, if at all. *)
type runner = Run_none | Run_interp | Run_sim

(** Each runner's spelling on the wire and on the command line:
    ["none"], ["interp"], ["sim"]. *)
val runners : (string * runner) list

val runner_name : runner -> string

(** Everything about a compile the daemon needs to reproduce `hloc`
    bit-for-bit.  On the wire the knob record travels as its canonical
    policy text (field ["policy"], required) plus one string field per
    compile switch ({!Policy.switches}); decoding is strict, so an
    unknown or ill-typed field is an error. *)
type compile_options = {
  co_config : Policy.t;  (** every HLO knob, as the client resolved it *)
  co_main : string;
  co_runner : runner;
  co_stats : bool;
  co_dump_ir : bool;
  co_dump_profile : bool;
  co_dump_asm : bool;
  co_dump_journal : bool;
}

val default_options : compile_options

type request =
  | Compile of {
      modules : (string * string) list;  (** module name, MiniC text *)
      options : compile_options;
    }
  | Stats
  | Ping
  | Shutdown

(** Structured admission-control verdict. *)
type reject = {
  rj_kind : string;
      (** "request_over_budget" | "queue_full" | "shutting_down" *)
  rj_cost : float;  (** estimated cost of the rejected request *)
  rj_limit : float;  (** the budget or queue bound that was exceeded *)
  rj_reason : string;  (** human-readable sentence *)
}

type response =
  | Compiled of {
      outputs : (string * string) list;
          (** ordered (channel, text) pieces: ["diag"] goes to stderr,
              everything else to stdout in list order *)
      cache : string;  (** "miss" | "hit" | "disk" | "coalesced" *)
      key : string;  (** content-address of the request *)
      queued : bool;  (** admission made the request wait *)
      elapsed_us : float;
    }
  | Failed of {
      kind : string;
          (** "compile_error" | "trap" | "internal" | "bad_request" *)
      reason : string;  (** what `hloc` would put in its error exit *)
      outputs : (string * string) list;
          (** pieces produced before the failure, same conventions *)
    }
  | Rejected of reject
  | Stats_reply of Telemetry.Json.t
  | Pong
  | Shutting_down

val request_to_json : request -> Telemetry.Json.t
val request_of_json : Telemetry.Json.t -> (request, string) result
val response_to_json : response -> Telemetry.Json.t
val response_of_json : Telemetry.Json.t -> (response, string) result

(** Encode + frame in one step. *)
val write_request : out_channel -> request -> unit

val write_response : out_channel -> response -> unit

(** Read + decode; a decode failure is [Error (Malformed _)]. *)
val read_request :
  ?max_bytes:int -> in_channel -> (request, frame_error) result

val read_response :
  ?max_bytes:int -> in_channel -> (response, frame_error) result
