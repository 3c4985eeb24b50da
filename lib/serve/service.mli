(** The compile service: everything `hlod` does between a decoded
    request and an encoded response, with no sockets in sight (the
    tests and the load-generator bench drive it both ways — directly
    and over a socket).

    Request lifecycle for [Compile]:

    + artifact-store lookup (memory, then disk) — a hit is served
      without admission, it consumes no compile capacity;
    + coalescing — a request identical to one currently being compiled
      waits for that compile instead of being admitted twice (request
      batching for the only batch that is always safe: identical work);
    + admission — the Σ size² estimate is checked against the
      per-request budget, then the request waits, FIFO and bounded by
      the queue limit, for the one compile slot (or is rejected with a
      structured reason);
    + the compile itself, run while the slot is held: the warm domain
      pool has a single-batch contract, and one compile at a time is
      also what lets a private telemetry collector capture the
      per-request spans and decision journal.  The compile is
      {!Pipeline.compile} — the function in-process `hloc` runs — with
      every selection-only piece switched on, so results are
      bit-identical to `hloc`;
    + the superset of output pieces is stored content-addressed, then
      the response selects the pieces this client asked for (a failed
      compile's pieces are selected the same way).

    All entry points are thread-safe. *)

type config = {
  jobs : int;  (** warm pool degree for the compile pipeline *)
  request_budget : float;  (** max Σ size² estimate of one request *)
  queue_limit : int;  (** requests that may wait for the compile slot *)
  artifact_dir : string option;  (** persist artifacts when set *)
  artifact_cap : int option;
      (** bound both artifact tiers to this many entries (LRU);
          [None] = unbounded *)
  max_frame : int;  (** wire-frame payload cap, bytes *)
}

val default_config : config

type t

val create : config -> t
val config : t -> config

(** The admission controller in front of the compile slot.  A caller
    that takes the slot itself (the load bench's saturation scenario)
    must {!Admission.release} it. *)
val admission : t -> Admission.t

(** Serve one request.  Never raises. *)
val handle : t -> Protocol.request -> Protocol.response

(** Begin shutdown: new compiles are rejected ("shutting_down"),
    queued waiters are woken and rejected; in-flight compiles keep
    running. *)
val stop : t -> unit

(** Block until every in-flight compile request has resolved. *)
val drain : t -> unit

(** The live statistics document served for [Stats] requests. *)
val stats_json : t -> Telemetry.Json.t
