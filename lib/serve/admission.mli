(** Admission control for the compile daemon: one bounded FIFO in front
    of the one compile slot.

    The daemon compiles one request at a time (the warm pool runs one
    batch, and the journal collector is process-global), so admission
    grants a single slot.  A leader that is granted the slot compiles
    while it holds its ticket and hands the slot on with {!release}.

    Verdicts are structured, never silent:
    - a request whose estimated cost — the paper's compile-time budget,
      [Σ size(R)²] — exceeds [request_budget] is rejected with
      ["request_over_budget"];
    - a request that finds the slot taken waits, strictly in arrival
      order, unless [queue_limit] requests are already waiting — then
      it is rejected with ["queue_full"];
    - once {!close} has been called every waiter and every later
      admission attempt is rejected with ["shutting_down"] (the slot
      holder keeps the slot until {!release}).

    All operations are thread-safe; {!admit} blocks. *)

type t

val create : request_budget:float -> queue_limit:int -> t

(** Cost estimate for a compile request: per module,
    [Ucode.Size.cost_of_size] of the instruction count a MiniC source
    of that byte length typically lowers to (~{!bytes_per_instr} bytes
    per instruction).  An estimate on purpose — admission happens
    before any parsing — but quadratic like the real cost, so the
    skew between many small modules and one huge module survives. *)
val cost_of_modules : (string * string) list -> float

val bytes_per_instr : int

type ticket = {
  tk_queued : bool;  (** the request waited for the slot *)
  tk_queued_us : float;  (** how long *)
}

(** Blocking admission.  [Ok ticket] grants the compile slot — the
    caller must {!release} it exactly once.  [Error reject] is the
    structured refusal, ready to put on the wire. *)
val admit : t -> cost:float -> (ticket, Protocol.reject) result

(** Give the slot back; the longest waiter gets it next. *)
val release : t -> unit

(** Reject all current waiters and future admissions. *)
val close : t -> unit

type snapshot = {
  sn_busy : bool;  (** the compile slot is held *)
  sn_request_budget : float;
  sn_queue_limit : int;
  sn_waiting : int;  (** requests queued right now *)
  sn_admitted : int;  (** lifetime grants *)
  sn_queued : int;  (** grants that had to wait first *)
  sn_rejected_over_budget : int;
  sn_rejected_queue_full : int;
  sn_rejected_shutdown : int;
  sn_peak_waiting : int;
}

val snapshot : t -> snapshot
