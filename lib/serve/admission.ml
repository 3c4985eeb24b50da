(** Admission control: one bounded FIFO in front of the one compile
    slot.  See the interface for the contract.

    Waiters queue in arrival order, each blocked on its own condition
    variable.  {!release} hands the slot straight to the head of the
    queue and wakes that waiter alone, so grants are strictly FIFO and
    a release costs one wake-up however long the queue is. *)

type waiter = { wake : Condition.t; mutable granted : bool }

type t = {
  request_budget : float;
  queue_limit : int;
  lock : Mutex.t;
  queue : waiter Queue.t;  (** waiting for the slot, oldest first *)
  mutable busy : bool;  (** a ticket holds the compile slot *)
  mutable closed : bool;
  (* lifetime statistics *)
  mutable admitted : int;
  mutable queued : int;
  mutable rejected_over_budget : int;
  mutable rejected_queue_full : int;
  mutable rejected_shutdown : int;
  mutable peak_waiting : int;
}

let create ~request_budget ~queue_limit =
  { request_budget; queue_limit; lock = Mutex.create ();
    queue = Queue.create (); busy = false; closed = false; admitted = 0;
    queued = 0; rejected_over_budget = 0; rejected_queue_full = 0;
    rejected_shutdown = 0; peak_waiting = 0 }

let bytes_per_instr = 16

let cost_of_modules modules =
  List.fold_left
    (fun acc (_, source) ->
      let est_instrs = max 1 (String.length source / bytes_per_instr) in
      acc +. Ucode.Size.cost_of_size est_instrs)
    0.0 modules

type ticket = { tk_queued : bool; tk_queued_us : float }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let reject kind cost limit reason : Protocol.reject =
  { Protocol.rj_kind = kind; rj_cost = cost; rj_limit = limit;
    rj_reason = reason }

let shutting_down t cost =
  t.rejected_shutdown <- t.rejected_shutdown + 1;
  Error (reject "shutting_down" cost 0.0 "the server is shutting down")

let admit t ~cost =
  locked t @@ fun () ->
  if t.closed then shutting_down t cost
  else if cost > t.request_budget then begin
    t.rejected_over_budget <- t.rejected_over_budget + 1;
    Error
      (reject "request_over_budget" cost t.request_budget
         (Printf.sprintf
            "estimated cost %.0f size^2 units exceeds the per-request \
             budget of %.0f"
            cost t.request_budget))
  end
  else if not t.busy then begin
    (* A free slot implies an empty queue: {!release} hands the slot on
       while anyone waits. *)
    t.busy <- true;
    t.admitted <- t.admitted + 1;
    Ok { tk_queued = false; tk_queued_us = 0.0 }
  end
  else if Queue.length t.queue >= t.queue_limit then begin
    t.rejected_queue_full <- t.rejected_queue_full + 1;
    Error
      (reject "queue_full" cost
         (float_of_int t.queue_limit)
         (Printf.sprintf
            "server busy and the admission queue already holds %d requests"
            (Queue.length t.queue)))
  end
  else begin
    let t0 = Telemetry.Clock.now_us () in
    let w = { wake = Condition.create (); granted = false } in
    Queue.push w t.queue;
    t.peak_waiting <- max t.peak_waiting (Queue.length t.queue);
    while (not w.granted) && not t.closed do
      Condition.wait w.wake t.lock
    done;
    if not w.granted then shutting_down t cost
    else begin
      t.admitted <- t.admitted + 1;
      t.queued <- t.queued + 1;
      Ok { tk_queued = true; tk_queued_us = Telemetry.Clock.now_us () -. t0 }
    end
  end

let release t =
  locked t @@ fun () ->
  match Queue.take_opt t.queue with
  | Some w ->
    w.granted <- true;
    Condition.signal w.wake
  | None -> t.busy <- false

let close t =
  locked t @@ fun () ->
  t.closed <- true;
  Queue.iter (fun w -> Condition.signal w.wake) t.queue;
  Queue.clear t.queue

type snapshot = {
  sn_busy : bool;
  sn_request_budget : float;
  sn_queue_limit : int;
  sn_waiting : int;
  sn_admitted : int;
  sn_queued : int;
  sn_rejected_over_budget : int;
  sn_rejected_queue_full : int;
  sn_rejected_shutdown : int;
  sn_peak_waiting : int;
}

let snapshot t =
  locked t @@ fun () ->
  { sn_busy = t.busy; sn_request_budget = t.request_budget;
    sn_queue_limit = t.queue_limit; sn_waiting = Queue.length t.queue;
    sn_admitted = t.admitted; sn_queued = t.queued;
    sn_rejected_over_budget = t.rejected_over_budget;
    sn_rejected_queue_full = t.rejected_queue_full;
    sn_rejected_shutdown = t.rejected_shutdown;
    sn_peak_waiting = t.peak_waiting }
