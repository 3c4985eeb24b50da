(** Versioned, checksummed on-disk container shared by every store the
    compiler persists (isom object files, build manifest, policy files,
    daemon artifacts).  See the interface for the contract; the layout is one
    header line

      <magic> <version> <md5-hex-of-payload> <payload-length>

    followed by the payload bytes verbatim. *)

let header ~magic ~version payload =
  Printf.sprintf "%s %d %s %d\n" magic version
    (Digest.to_hex (Digest.string payload))
    (String.length payload)

let save ~path ~magic ~version payload =
  if String.exists (fun c -> c = ' ' || c = '\n') magic then
    invalid_arg ("Store.save: magic contains a separator: " ^ magic);
  let tmp = path ^ ".tmp" in
  try
    let oc = open_out_bin tmp in
    (try
       output_string oc (header ~magic ~version payload);
       output_string oc payload;
       close_out oc
     with e -> close_out_noerr oc; raise e);
    Sys.rename tmp path;
    Ok ()
  with Sys_error msg -> Error msg

let load ~path ~magic ~version =
  if not (Sys.file_exists path) then Ok None
  else
    try
      let ic = open_in_bin path in
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      match In_channel.input_line ic with
      | None -> Error (path ^ ": empty store")
      | Some line -> (
        match String.split_on_char ' ' line with
        | [ m; v; digest; len ] -> (
          if m <> magic then
            Error (Printf.sprintf "%s: not a %s store (found %s)" path magic m)
          else
            match (int_of_string_opt v, int_of_string_opt len) with
            | Some v, _ when v <> version ->
              Error
                (Printf.sprintf "%s: %s version %d (this build reads %d)" path
                   magic v version)
            | Some _, Some len when len >= 0 ->
              (* Read what the file holds, not what the header claims: a
                 corrupted length must not size an allocation. *)
              let payload = In_channel.input_all ic in
              if String.length payload < len then
                Error (path ^ ": truncated payload")
              else if String.length payload > len then
                Error (path ^ ": trailing bytes after payload")
              else if Digest.to_hex (Digest.string payload) <> digest then
                Error (path ^ ": checksum mismatch")
              else Ok (Some payload)
            | _ -> Error (path ^ ": malformed header"))
        | _ -> Error (path ^ ": malformed header"))
    with Sys_error msg -> Error msg
