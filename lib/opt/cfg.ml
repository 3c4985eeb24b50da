(** Control-flow-graph helpers shared by the optimization passes. *)

module U = Ucode.Types

(** Successor labels of each block. *)
let successors (r : U.routine) : U.label list U.Int_map.t =
  List.fold_left
    (fun m (b : U.block) ->
      U.Int_map.add b.U.b_id (U.term_targets b.U.b_term) m)
    U.Int_map.empty r.U.r_blocks

(** Predecessor labels of each block (blocks with no predecessors are
    present, mapped to []). *)
let predecessors (r : U.routine) : U.label list U.Int_map.t =
  let init =
    List.fold_left
      (fun m (b : U.block) -> U.Int_map.add b.U.b_id [] m)
      U.Int_map.empty r.U.r_blocks
  in
  List.fold_left
    (fun m (b : U.block) ->
      List.fold_left
        (fun m target ->
          U.Int_map.update target
            (function Some ps -> Some (b.U.b_id :: ps) | None -> Some [ b.U.b_id ])
            m)
        m
        (U.term_targets b.U.b_term))
    init r.U.r_blocks

(** Labels reachable from the entry block. *)
let reachable (r : U.routine) : U.Int_set.t =
  let succs = successors r in
  let rec visit seen l =
    if U.Int_set.mem l seen then seen
    else
      let seen = U.Int_set.add l seen in
      List.fold_left visit seen
        (Option.value ~default:[] (U.Int_map.find_opt l succs))
  in
  visit U.Int_set.empty (U.entry_block r).U.b_id

(** Blocks in reverse postorder from the entry (a good iteration order
    for forward dataflow problems). *)
let reverse_postorder (r : U.routine) : U.label list =
  let succs = successors r in
  let seen = Hashtbl.create 16 in
  let order = ref [] in
  let rec visit l =
    if not (Hashtbl.mem seen l) then begin
      Hashtbl.replace seen l ();
      List.iter visit (Option.value ~default:[] (U.Int_map.find_opt l succs));
      order := l :: !order
    end
  in
  visit (U.entry_block r).U.b_id;
  !order

type positions = {
  blocks : U.block array;
  index : (U.label, int) Hashtbl.t;
  succs : int list array;
}

let positions (r : U.routine) : positions =
  let blocks = Array.of_list r.U.r_blocks in
  let index = Hashtbl.create (Array.length blocks) in
  Array.iteri
    (fun p (b : U.block) ->
      if not (Hashtbl.mem index b.U.b_id) then Hashtbl.add index b.U.b_id p)
    blocks;
  let succs =
    Array.map
      (fun (b : U.block) ->
        List.filter_map (Hashtbl.find_opt index) (U.term_targets b.U.b_term))
      blocks
  in
  { blocks; index; succs }

(** Replace the blocks of a routine, keeping the entry block first.
    Raises if the entry block is missing from [blocks]. *)
let with_blocks (r : U.routine) (blocks : U.block list) : U.routine =
  let entry_id = (U.entry_block r).U.b_id in
  match List.partition (fun (b : U.block) -> b.U.b_id = entry_id) blocks with
  | [ entry ], rest -> { r with U.r_blocks = entry :: rest }
  | _ -> invalid_arg "Cfg.with_blocks: entry block missing or duplicated"
