(** The hlod wire protocol.  See the interface for the frame layout;
    this file is the one place that knows the JSON shape of requests
    and responses, so the server, the client library, and the tests
    cannot drift apart. *)

module J = Telemetry.Json

let magic = "hlod1"
let default_max_frame = 16 * 1024 * 1024

type frame_error =
  | Closed
  | Truncated
  | Malformed of string
  | Oversized of { announced : int; limit : int }

let frame_error_to_string = function
  | Closed -> "connection closed"
  | Truncated -> "truncated frame"
  | Malformed msg -> "malformed frame: " ^ msg
  | Oversized { announced; limit } ->
    Printf.sprintf "oversized frame: %d bytes announced, limit %d" announced
      limit

(* The header is short; read it byte by byte so we never consume
   payload bytes while hunting for the newline, and bound the scan so
   a stream of garbage cannot grow the line forever. *)
let max_header_len = 64

let read_header ic =
  let buf = Buffer.create 24 in
  let rec go first =
    if Buffer.length buf > max_header_len then
      Error (Malformed "header line too long")
    else
      match In_channel.input_char ic with
      | None -> if first then Error Closed else Error Truncated
      | Some '\n' -> Ok (Buffer.contents buf)
      | Some c ->
        Buffer.add_char buf c;
        go false
  in
  go true

let read_frame ?(max_bytes = default_max_frame) ic =
  match read_header ic with
  | Error e -> Error e
  | Ok line -> (
    match String.split_on_char ' ' line with
    | [ m; _ ] when m <> magic ->
      Error (Malformed (Printf.sprintf "bad magic %S (expected %S)" m magic))
    | [ _; len ] -> (
      match int_of_string_opt len with
      | None -> Error (Malformed ("unparsable length " ^ len))
      | Some n when n < 0 -> Error (Malformed ("negative length " ^ len))
      | Some n when n > max_bytes ->
        Error (Oversized { announced = n; limit = max_bytes })
      | Some n -> (
        match In_channel.really_input_string ic n with
        | None -> Error Truncated
        | Some payload -> Ok payload))
    | _ -> Error (Malformed ("bad header line " ^ String.escaped line)))

let write_frame oc payload =
  output_string oc (Printf.sprintf "%s %d\n" magic (String.length payload));
  output_string oc payload;
  flush oc

(* ------------------------------------------------------------------ *)
(* Messages.                                                           *)

type runner = Run_none | Run_interp | Run_sim

let runners = [ ("none", Run_none); ("interp", Run_interp); ("sim", Run_sim) ]

let runner_name r = fst (List.find (fun (_, r') -> r' = r) runners)

type compile_options = {
  co_config : Policy.t;
  co_main : string;
  co_runner : runner;
  co_stats : bool;
  co_dump_ir : bool;
  co_dump_profile : bool;
  co_dump_asm : bool;
  co_dump_journal : bool;
}

let default_options =
  { co_config = Policy.default; co_main = "main"; co_runner = Run_sim;
    co_stats = false; co_dump_ir = false; co_dump_profile = false;
    co_dump_asm = false; co_dump_journal = false }

type request =
  | Compile of {
      modules : (string * string) list;
      options : compile_options;
    }
  | Stats
  | Ping
  | Shutdown

type reject = {
  rj_kind : string;
  rj_cost : float;
  rj_limit : float;
  rj_reason : string;
}

type response =
  | Compiled of {
      outputs : (string * string) list;
      cache : string;
      key : string;
      queued : bool;
      elapsed_us : float;
    }
  | Failed of {
      kind : string;
      reason : string;
      outputs : (string * string) list;
    }
  | Rejected of reject
  | Stats_reply of J.t
  | Pong
  | Shutting_down

(* ------------------------------------------------------------------ *)
(* JSON encoding.                                                      *)

(* The knobs travel as the canonical policy text plus one string field
   per compile switch, all read off the policy knob table. *)
let options_to_json (o : compile_options) : J.t =
  J.Assoc
    ((("policy", J.String (Policy.to_string o.co_config))
      :: List.map (fun (k, v) -> (k, J.String v)) (Policy.switches o.co_config))
    @ [ ("main", J.String o.co_main);
        ("runner", J.String (runner_name o.co_runner));
        ("stats", J.Bool o.co_stats); ("dump_ir", J.Bool o.co_dump_ir);
        ("dump_profile", J.Bool o.co_dump_profile);
        ("dump_asm", J.Bool o.co_dump_asm);
        ("dump_journal", J.Bool o.co_dump_journal) ])

let request_to_json = function
  | Compile { modules; options } ->
    J.Assoc
      [ ("op", J.String "compile");
        ( "modules",
          J.List
            (List.map
               (fun (name, source) ->
                 J.Assoc
                   [ ("name", J.String name); ("source", J.String source) ])
               modules) );
        ("options", options_to_json options) ]
  | Stats -> J.Assoc [ ("op", J.String "stats") ]
  | Ping -> J.Assoc [ ("op", J.String "ping") ]
  | Shutdown -> J.Assoc [ ("op", J.String "shutdown") ]

let outputs_to_json outputs =
  J.List
    (List.map
       (fun (ch, text) ->
         J.Assoc [ ("channel", J.String ch); ("text", J.String text) ])
       outputs)

let response_to_json = function
  | Compiled { outputs; cache; key; queued; elapsed_us } ->
    J.Assoc
      [ ("ok", J.Bool true); ("result", J.String "compiled");
        ("cache", J.String cache); ("key", J.String key);
        ("queued", J.Bool queued); ("elapsed_us", J.Float elapsed_us);
        ("outputs", outputs_to_json outputs) ]
  | Failed { kind; reason; outputs } ->
    J.Assoc
      [ ("ok", J.Bool false); ("result", J.String "failed");
        ("kind", J.String kind); ("reason", J.String reason);
        ("outputs", outputs_to_json outputs) ]
  | Rejected r ->
    J.Assoc
      [ ("ok", J.Bool false); ("result", J.String "rejected");
        ("kind", J.String r.rj_kind); ("cost", J.Float r.rj_cost);
        ("limit", J.Float r.rj_limit); ("reason", J.String r.rj_reason) ]
  | Stats_reply stats ->
    J.Assoc [ ("ok", J.Bool true); ("result", J.String "stats");
              ("stats", stats) ]
  | Pong -> J.Assoc [ ("ok", J.Bool true); ("result", J.String "pong") ]
  | Shutting_down ->
    J.Assoc [ ("ok", J.Bool true); ("result", J.String "shutting_down") ]

(* ------------------------------------------------------------------ *)
(* JSON decoding — every shape error is a value, never an exception.   *)

let member_string key json =
  Option.bind (J.member key json) J.to_string_opt

let member_number key json = Option.bind (J.member key json) J.to_number

let member_bool key json =
  match J.member key json with Some (J.Bool b) -> Some b | _ -> None

let ( let* ) r f = Result.bind r f

let require what = function
  | Some v -> Ok v
  | None -> Error ("missing or ill-typed field: " ^ what)

(* Strict: the policy text is required, every other field is optional
   but must be a known key of the right type — an unknown or ill-typed
   field is an error, never a silent default. *)
let options_of_json json : (compile_options, string) result =
  let* fields =
    match json with
    | J.Assoc fields -> Ok fields
    | _ -> Error "options is not an object"
  in
  let* text = require "policy" (member_string "policy" json) in
  let* co_config =
    Result.map_error (fun msg -> "bad policy: " ^ msg) (Policy.of_string text)
  in
  List.fold_left
    (fun acc (key, v) ->
      let* o = acc in
      match (key, v) with
      | "policy", _ -> Ok o
      | "main", J.String s -> Ok { o with co_main = s }
      | "runner", J.String s when List.mem_assoc s runners ->
        Ok { o with co_runner = List.assoc s runners }
      | "stats", J.Bool b -> Ok { o with co_stats = b }
      | "dump_ir", J.Bool b -> Ok { o with co_dump_ir = b }
      | "dump_profile", J.Bool b -> Ok { o with co_dump_profile = b }
      | "dump_asm", J.Bool b -> Ok { o with co_dump_asm = b }
      | "dump_journal", J.Bool b -> Ok { o with co_dump_journal = b }
      | ( ( "main" | "runner" | "stats" | "dump_ir" | "dump_profile"
          | "dump_asm" | "dump_journal" ),
          _ ) ->
        Error ("bad option " ^ key)
      | _, J.String s ->
        let* co_config = Policy.set_switch o.co_config key s in
        Ok { o with co_config }
      | _ -> Error ("bad option " ^ key))
    (Ok { default_options with co_config })
    fields

let module_of_json json =
  let* name = require "module name" (member_string "name" json) in
  let* source = require "module source" (member_string "source" json) in
  Ok (name, source)

let rec map_result f = function
  | [] -> Ok []
  | x :: rest ->
    let* y = f x in
    let* ys = map_result f rest in
    Ok (y :: ys)

let request_of_json json : (request, string) result =
  let* op = require "op" (member_string "op" json) in
  match op with
  | "stats" -> Ok Stats
  | "ping" -> Ok Ping
  | "shutdown" -> Ok Shutdown
  | "compile" ->
    let* mods =
      require "modules"
        (Option.bind (J.member "modules" json) J.to_list_opt)
    in
    let* modules = map_result module_of_json mods in
    if modules = [] then Error "empty module list"
    else
      let* options =
        match J.member "options" json with
        | None -> Ok default_options
        | Some o -> options_of_json o
      in
      Ok (Compile { modules; options })
  | op -> Error ("unknown op " ^ op)

let outputs_of_json json =
  match J.to_list_opt json with
  | None -> Error "outputs is not a list"
  | Some items ->
    map_result
      (fun item ->
        let* ch = require "output channel" (member_string "channel" item) in
        let* text = require "output text" (member_string "text" item) in
        Ok (ch, text))
      items

let response_of_json json : (response, string) result =
  let* result = require "result" (member_string "result" json) in
  match result with
  | "pong" -> Ok Pong
  | "shutting_down" -> Ok Shutting_down
  | "stats" ->
    let* stats = require "stats" (J.member "stats" json) in
    Ok (Stats_reply stats)
  | "compiled" ->
    let* outputs =
      Result.bind (require "outputs" (J.member "outputs" json))
        outputs_of_json
    in
    let* cache = require "cache" (member_string "cache" json) in
    let* key = require "key" (member_string "key" json) in
    let* queued = require "queued" (member_bool "queued" json) in
    let* elapsed_us = require "elapsed_us" (member_number "elapsed_us" json) in
    Ok (Compiled { outputs; cache; key; queued; elapsed_us })
  | "failed" ->
    let* kind = require "kind" (member_string "kind" json) in
    let* reason = require "reason" (member_string "reason" json) in
    let* outputs =
      match J.member "outputs" json with
      | None -> Ok []
      | Some o -> outputs_of_json o
    in
    Ok (Failed { kind; reason; outputs })
  | "rejected" ->
    let* kind = require "kind" (member_string "kind" json) in
    let* cost = require "cost" (member_number "cost" json) in
    let* limit = require "limit" (member_number "limit" json) in
    let* reason = require "reason" (member_string "reason" json) in
    Ok (Rejected { rj_kind = kind; rj_cost = cost; rj_limit = limit;
                   rj_reason = reason })
  | r -> Error ("unknown result " ^ r)

(* ------------------------------------------------------------------ *)
(* Framed message IO.                                                  *)

let write_request oc req = write_frame oc (J.to_string (request_to_json req))
let write_response oc resp = write_frame oc (J.to_string (response_to_json resp))

let decode_with parser payload =
  match J.of_string payload with
  | Error msg -> Error (Malformed ("bad JSON: " ^ msg))
  | Ok json -> (
    match parser json with
    | Ok v -> Ok v
    | Error msg -> Error (Malformed msg))

let read_request ?max_bytes ic =
  Result.bind (read_frame ?max_bytes ic) (decode_with request_of_json)

let read_response ?max_bytes ic =
  Result.bind (read_frame ?max_bytes ic) (decode_with response_of_json)
