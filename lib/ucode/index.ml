(** Read-only routine-name index: a hash table from each routine name
    to its id, and the first routine of each name in an array by id. *)

open Types

module Tbl = Hashtbl.Make (String)

type t = {
  ids : int Tbl.t;
  routines : routine array;  (** by id *)
}

(* A name gets its id at its first routine; a later routine of the same
   name is skipped, so the first definition wins. *)
let of_program (p : program) : t =
  let ids = Tbl.create (List.length p.p_routines) in
  let firsts =
    List.fold_left
      (fun acc r ->
        if Tbl.mem ids r.r_name then acc
        else begin
          Tbl.add ids r.r_name (Tbl.length ids);
          r :: acc
        end)
      [] p.p_routines
  in
  { ids; routines = Array.of_list (List.rev firsts) }

let size t = Array.length t.routines

let id t name = Tbl.find_opt t.ids name

let routine t i = t.routines.(i)

let find t name =
  match Tbl.find_opt t.ids name with
  | Some i -> Some t.routines.(i)
  | None -> None

let find_exn t name =
  match find t name with
  | Some r -> r
  | None -> invalid_arg ("Index.find_exn: no routine named " ^ name)

let mem t name = Tbl.mem t.ids name

let arity t name =
  match find t name with
  | Some r -> Some (List.length r.r_params)
  | None -> builtin_arity name
