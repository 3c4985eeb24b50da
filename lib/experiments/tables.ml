(** Plain-text table rendering for experiment output. *)

type align = Left | Right

(** Render rows under headers; column widths fit the content. *)
let render ?(aligns : align list = []) ~(headers : string list)
    (rows : string list list) : string =
  let ncols = List.length headers in
  let align_of i =
    match List.nth_opt aligns i with Some a -> a | None -> Right
  in
  let widths = Array.of_list (List.map String.length headers) in
  List.iter
    (fun row ->
      List.iteri
        (fun i cell ->
          if i < ncols then widths.(i) <- max widths.(i) (String.length cell))
        row)
    rows;
  let pad i cell =
    let w = widths.(i) in
    let n = w - String.length cell in
    if n <= 0 then cell
    else
      match align_of i with
      | Left -> cell ^ String.make n ' '
      | Right -> String.make n ' ' ^ cell
  in
  let line row = String.concat "  " (List.mapi pad row) in
  let rule =
    String.concat "  "
      (List.mapi (fun i _ -> String.make widths.(i) '-') headers)
  in
  String.concat "\n" (line headers :: rule :: List.map line rows) ^ "\n"

let f2 x = Printf.sprintf "%.2f" x
let f3 x = Printf.sprintf "%.3f" x

let geomean xs =
  match xs with
  | [] -> 0.0
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs
         /. float_of_int (List.length xs))
