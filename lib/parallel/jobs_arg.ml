let conv =
  let parse s =
    match int_of_string_opt s with
    | Some n when n <= Pool.max_jobs -> Ok n
    | Some n ->
      Error (`Msg (Printf.sprintf "%d jobs: at most %d" n Pool.max_jobs))
    | None -> Error (`Msg (Printf.sprintf "invalid job count %S" s))
  in
  Cmdliner.Arg.conv ~docv:"N" (parse, Format.pp_print_int)
