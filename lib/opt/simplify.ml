(** Control-flow-graph simplification.

    Four clean-ups, iterated to a fixpoint:
    - a conditional branch with identical targets becomes a jump;
    - blocks unreachable from the entry are deleted (constant-branch
      folding and inlining of never-returning paths create them);
    - jumps *through* an empty block are threaded to its target;
    - a block whose only successor has no other predecessor is merged
      with it (inlining and short-circuit lowering leave many such
      chains, and bigger blocks give local CSE/copy-prop more scope).

    Each clean-up sets the step's [changed] flag exactly when it
    rewrites something: a folded branch, a dropped block, a retargeted
    label, an absorbed block.  None of these is undone by a later step,
    so the flag answers "does the output differ from the input"
    without comparing routines. *)

module U = Ucode.Types

let fold_trivial_branches changed (r : U.routine) =
  let rewrite (b : U.block) =
    match b.U.b_term with
    | U.Branch (_, l1, l2) when l1 = l2 ->
      changed := true;
      { b with U.b_term = U.Jump l1 }
    | _ -> b
  in
  { r with U.r_blocks = List.map rewrite r.U.r_blocks }

let remove_unreachable changed (r : U.routine) =
  let reach = Cfg.reachable r in
  let reachable (b : U.block) =
    let keep = U.Int_set.mem b.U.b_id reach in
    if not keep then changed := true;
    keep
  in
  { r with U.r_blocks = List.filter reachable r.U.r_blocks }

(** Redirect branches that target an empty block ending in a jump
    straight to that jump's destination.  A bounded chase handles
    chains of empty blocks; cycles of empty blocks (infinite loops) are
    left alone. *)
let thread_jumps changed (r : U.routine) =
  let empty_target = Hashtbl.create 16 in
  List.iter
    (fun (b : U.block) ->
      match (b.U.b_instrs, b.U.b_term) with
      | [], U.Jump t when t <> b.U.b_id -> Hashtbl.replace empty_target b.U.b_id t
      | _ -> ())
    r.U.r_blocks;
  let rec chase seen l =
    match Hashtbl.find_opt empty_target l with
    | Some t when not (List.mem t seen) -> chase (l :: seen) t
    | _ -> l
  in
  let target l =
    let t = chase [] l in
    if t <> l then changed := true;
    t
  in
  let rewrite (b : U.block) =
    { b with U.b_term = U.map_term_labels target b.U.b_term }
  in
  { r with U.r_blocks = List.map rewrite r.U.r_blocks }

(** Merge [b -> t] when [b] jumps to [t], [t]'s only predecessor is
    [b], and [t] is not the entry block.

    The set of absorbable blocks is computed up front (a block is
    absorbable when its unique predecessor ends in a jump to it); only
    non-absorbable blocks are emitted, each extended by walking its
    absorption chain.  Computing the set first makes the decision
    order-independent — deciding during the traversal can absorb a
    block into two different predecessors' chains, leaving a dangling
    jump to a deleted label. *)
let merge_chains changed (r : U.routine) =
  let preds = Cfg.predecessors r in
  let entry_id = (U.entry_block r).U.b_id in
  let blocks = Hashtbl.create 16 in
  List.iter (fun (b : U.block) -> Hashtbl.replace blocks b.U.b_id b) r.U.r_blocks;
  let absorbable t =
    t <> entry_id
    &&
    match U.Int_map.find_opt t preds with
    | Some [ p ] -> (
      p <> t
      &&
      match Hashtbl.find_opt blocks p with
      | Some pred_block -> pred_block.U.b_term = U.Jump t
      | None -> false)
    | _ -> false
  in
  let absorbed = Hashtbl.create 16 in
  List.iter
    (fun (b : U.block) ->
      if absorbable b.U.b_id then Hashtbl.replace absorbed b.U.b_id ())
    r.U.r_blocks;
  if Hashtbl.length absorbed > 0 then changed := true;
  let expand (b : U.block) : U.block =
    let rec follow acc term seen =
      match term with
      | U.Jump t when Hashtbl.mem absorbed t && not (U.Int_set.mem t seen) -> (
        match Hashtbl.find_opt blocks t with
        | Some target ->
          follow (acc @ target.U.b_instrs) target.U.b_term (U.Int_set.add t seen)
        | None -> (acc, term))
      | _ -> (acc, term)
    in
    let instrs, term = follow b.U.b_instrs b.U.b_term U.Int_set.empty in
    { b with U.b_instrs = instrs; U.b_term = term }
  in
  let kept =
    List.filter_map
      (fun (b : U.block) ->
        if Hashtbl.mem absorbed b.U.b_id then None else Some (expand b))
      r.U.r_blocks
  in
  { r with U.r_blocks = kept }

let run (r : U.routine) : U.routine * bool =
  let step r =
    let changed = ref false in
    let r' =
      r |> fold_trivial_branches changed |> remove_unreachable changed
      |> thread_jumps changed |> remove_unreachable changed
      |> merge_chains changed
    in
    (r', !changed)
  in
  let rec loop r n any =
    if n = 0 then (r, any)
    else
      let r', changed = step r in
      if changed then loop r' (n - 1) true else (r, any)
  in
  loop r 10 false
