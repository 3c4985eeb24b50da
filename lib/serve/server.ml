module P = Protocol

type t = {
  service : Service.t;
  socket_path : string;
  listen_fd : Unix.file_descr;
  lock : Mutex.t;
  conns : (int, Unix.file_descr) Hashtbl.t;  (** live connection fds *)
  mutable threads : Thread.t list;  (** connection threads, unpruned *)
  mutable next_conn : int;
  mutable stopped : bool;  (** listener closed *)
  mutable accept_thread : Thread.t option;
}

let service t = t.service
let socket_path t = t.socket_path

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* Close the listener and unblock every connection reader.  Safe to
   call from any thread, any number of times. *)
let stop_listening t =
  let fds =
    locked t @@ fun () ->
    if t.stopped then None
    else begin
      t.stopped <- true;
      Some (Hashtbl.fold (fun _ fd acc -> fd :: acc) t.conns [])
    end
  in
  match fds with
  | None -> ()
  | Some conn_fds ->
    (* Shutting the listening socket down forces a blocked accept(2)
       to return; closing alone can leave it sleeping. *)
    (try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL with _ -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (try Unix.unlink t.socket_path with _ -> ());
    (* Wake connection threads parked in read_request; their writes
       still work, so an in-flight response is delivered first. *)
    List.iter
      (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_RECEIVE with _ -> ())
      conn_fds

let serve_connection t id fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let max_bytes = (Service.config t.service).Service.max_frame in
  let send resp = try P.write_response oc resp; true with _ -> false in
  let rec loop () =
    match P.read_request ~max_bytes ic with
    | Error (P.Closed | P.Truncated) ->
      (* Clean EOF, or the client vanished mid-frame.  Either way the
         connection is done; the server is not. *)
      ()
    | Error ((P.Malformed _ | P.Oversized _) as e) ->
      (* Answer with structure, then drop the connection: after a
         framing error the stream position is meaningless. *)
      ignore
        (send
           (P.Failed
              { kind = "bad_request";
                reason = P.frame_error_to_string e; outputs = [] })
          : bool)
    | Ok P.Shutdown ->
      (* Drain before acknowledging: when the client sees
         [Shutting_down], every request the server accepted has been
         served. *)
      Service.stop t.service;
      Service.drain t.service;
      ignore (send P.Shutting_down : bool);
      stop_listening t
    | Ok req -> if send (Service.handle t.service req) then loop ()
  in
  (try loop () with _ -> ());
  locked t (fun () -> Hashtbl.remove t.conns id);
  (try flush oc with _ -> ());
  (* One close for the fd; the wrapping channels are left to the GC,
     which does not close them (stdlib contract) — no double close. *)
  (try Unix.close fd with _ -> ())

let rec accept_loop t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop t
  | exception _ -> if not (locked t (fun () -> t.stopped)) then accept_loop t
  | fd, _ ->
    let id, accepted =
      locked t @@ fun () ->
      if t.stopped then (0, false)
      else begin
        let id = t.next_conn in
        t.next_conn <- id + 1;
        Hashtbl.replace t.conns id fd;
        (id, true)
      end
    in
    if not accepted then (try Unix.close fd with _ -> ())
    else begin
      let th = Thread.create (fun () -> serve_connection t id fd) () in
      locked t (fun () -> t.threads <- th :: t.threads)
    end;
    accept_loop t

let start ~socket config =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  if Sys.file_exists socket then (try Unix.unlink socket with _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (Unix.ADDR_UNIX socket);
     Unix.listen listen_fd 64
   with e ->
     (try Unix.close listen_fd with _ -> ());
     raise e);
  let t =
    { service = Service.create config; socket_path = socket; listen_fd;
      lock = Mutex.create (); conns = Hashtbl.create 16; threads = [];
      next_conn = 1; stopped = false; accept_thread = None }
  in
  t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
  t

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  (* Connection threads can still be delivering final responses; join
     whatever existed when the listener closed (no new ones appear). *)
  let threads = locked t (fun () -> t.threads) in
  List.iter Thread.join threads

let stop t =
  Service.stop t.service;
  Service.drain t.service;
  stop_listening t;
  wait t

let run ~socket config =
  let t = start ~socket config in
  wait t
