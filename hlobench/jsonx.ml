(* JSON for the harness's own documents.  Telemetry.Json prints floats
   with three decimals, which truncates small timings and ratios; here
   every float keeps all its digits so a value read back is the value
   measured.  Parsing and the value type are Telemetry.Json's. *)

module J = Telemetry.Json

let rec write buf = function
  | J.Float x when Float.is_finite x ->
    Buffer.add_string buf (Printf.sprintf "%.17g" x)
  | J.Float _ -> Buffer.add_string buf "null"
  | J.List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i v ->
        if i > 0 then Buffer.add_char buf ',';
        write buf v)
      items;
    Buffer.add_char buf ']'
  | J.Assoc fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (J.to_string (J.String k));
        Buffer.add_char buf ':';
        write buf v)
      fields;
    Buffer.add_char buf '}'
  | (J.Null | J.Bool _ | J.Int _ | J.String _) as v ->
    Buffer.add_string buf (J.to_string v)

let to_string v =
  let buf = Buffer.create 1024 in
  write buf v;
  Buffer.contents buf

let write_file path v =
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (to_string v);
      output_char oc '\n')

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error msg -> Error msg
  | text -> J.of_string text

let floats (fields : (string * float) list) =
  J.Assoc (List.map (fun (k, v) -> (k, J.Float v)) fields)

let member_exn key v =
  match J.member key v with
  | Some x -> x
  | None -> failwith (Printf.sprintf "missing field %S" key)

let number v =
  match J.to_number v with Some x -> x | None -> failwith "not a number"

let assoc v =
  match v with J.Assoc fields -> fields | _ -> failwith "not an object"

let list v =
  match J.to_list_opt v with Some l -> l | None -> failwith "not a list"

let to_floats v = List.map (fun (k, x) -> (k, number x)) (assoc v)
