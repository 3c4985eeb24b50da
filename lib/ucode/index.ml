(** Read-only routine-name index: the routines in one array, stably
    sorted by name, searched by bisection. *)

open Types

type t = routine array

(* Stable, so routines of one name keep their program order and the
   leftmost match is the first definition. *)
let of_program (p : program) : t =
  let a = Array.of_list p.p_routines in
  Array.stable_sort (fun x y -> String.compare x.r_name y.r_name) a;
  a

let find (t : t) name =
  let rec leftmost lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) lsr 1 in
      if String.compare t.(mid).r_name name < 0 then leftmost (mid + 1) hi
      else leftmost lo mid
  in
  let i = leftmost 0 (Array.length t) in
  if i < Array.length t && String.equal t.(i).r_name name then Some t.(i)
  else None

let find_exn t name =
  match find t name with
  | Some r -> r
  | None -> invalid_arg ("Index.find_exn: no routine named " ^ name)

let mem t name = find t name <> None

let arity t name =
  match find t name with
  | Some r -> Some (List.length r.r_params)
  | None -> builtin_arity name
