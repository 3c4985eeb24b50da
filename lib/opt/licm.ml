(** Loop-invariant code motion.

    Pure, non-trapping computations whose operands are not defined
    anywhere in a natural loop are hoisted to a freshly created
    preheader.  The big practical winners in this IR are the [Gaddr]
    and [Const] address computations that lowering re-emits on every
    iteration of a loop over a global array.

    Correctness without SSA requires care; an instruction [d <- op …]
    is hoisted only when all of:
    - it is pure and cannot trap ([Div]/[Rem] are excluded: the
      preheader runs even when the loop body would not, and hoisting a
      trap changes behavior; [Load]s are excluded because loop stores
      and calls may alias);
    - every operand register has no definition inside the loop;
    - [d] has exactly one definition inside the loop (this one);
    - [d] is not live into the loop header — if it were, some path
      observes the *outside* value of [d] before this definition (that
      includes every path that reaches a loop exit without executing
      the definition), and the hoisted write would clobber it.

    One hoisting round per invocation; the optimization pipeline's
    fixpoint iteration picks up second-order opportunities (an
    invariant chain hoists one link per round). *)

module U = Ucode.Types

(* ------------------------------------------------------------------ *)
(* Dominators (iterative data-flow over reverse postorder).            *)

let dominators (r : U.routine) : U.Int_set.t U.Int_map.t =
  let rpo = Cfg.reverse_postorder r in
  let preds = Cfg.predecessors r in
  let all = U.Int_set.of_list rpo in
  let entry = (U.entry_block r).U.b_id in
  let dom = ref (U.Int_map.singleton entry (U.Int_set.singleton entry)) in
  List.iter
    (fun l -> if l <> entry then dom := U.Int_map.add l all !dom)
    rpo;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun l ->
        if l <> entry then begin
          let pred_doms =
            List.filter_map
              (fun p -> U.Int_map.find_opt p !dom)
              (Option.value ~default:[] (U.Int_map.find_opt l preds))
          in
          let meet =
            match pred_doms with
            | [] -> all
            | first :: rest -> List.fold_left U.Int_set.inter first rest
          in
          let updated = U.Int_set.add l meet in
          if not (U.Int_set.equal updated (U.Int_map.find l !dom)) then begin
            dom := U.Int_map.add l updated !dom;
            changed := true
          end
        end)
      rpo
  done;
  !dom

(* ------------------------------------------------------------------ *)
(* Natural loops.                                                      *)

type loop = { header : U.label; body : U.Int_set.t }

(** Natural loops of the routine, bodies merged per header, smallest
    first (inner loops before the outer loops containing them). *)
let natural_loops (r : U.routine) : loop list =
  let dom = dominators r in
  let preds = Cfg.predecessors r in
  let dominates h n =
    match U.Int_map.find_opt n dom with
    | Some ds -> U.Int_set.mem h ds
    | None -> false
  in
  (* Back edges: n -> h with h dom n. *)
  let back_edges =
    List.concat_map
      (fun (b : U.block) ->
        List.filter_map
          (fun t -> if dominates t b.U.b_id then Some (b.U.b_id, t) else None)
          (U.term_targets b.U.b_term))
      r.U.r_blocks
  in
  (* Natural loop of (n, h): h plus everything reaching n avoiding h. *)
  let body_of (n, h) =
    let rec up seen l =
      if U.Int_set.mem l seen || l = h then seen
      else
        let seen = U.Int_set.add l seen in
        List.fold_left up seen
          (Option.value ~default:[] (U.Int_map.find_opt l preds))
    in
    U.Int_set.add h (up U.Int_set.empty n)
  in
  let by_header = Hashtbl.create 8 in
  List.iter
    (fun (n, h) ->
      let body = body_of (n, h) in
      Hashtbl.replace by_header h
        (match Hashtbl.find_opt by_header h with
        | Some prev -> U.Int_set.union prev body
        | None -> body))
    back_edges;
  Hashtbl.fold (fun header body acc -> { header; body } :: acc) by_header []
  |> List.sort (fun a b ->
         compare (U.Int_set.cardinal a.body) (U.Int_set.cardinal b.body))

(* ------------------------------------------------------------------ *)
(* Hoisting.                                                           *)

let pure_nontrapping = function
  | U.Const _ | U.Faddr _ | U.Gaddr _ | U.Unop _ | U.Move _ -> true
  | U.Binop (_, (U.Div | U.Rem), _, _) -> false
  | U.Binop _ -> true
  | U.Load _ | U.Store _ | U.Call _ -> false

(** Hoist from one loop.  Returns the routine and whether it changed. *)
let hoist_loop (r : U.routine) (l : loop) : U.routine * bool =
  let entry_id = (U.entry_block r).U.b_id in
  if l.header = entry_id then (r, false)
  else begin
    let in_loop lbl = U.Int_set.mem lbl l.body in
    (* Registers defined inside the loop, with definition counts. *)
    let def_counts = Hashtbl.create 32 in
    List.iter
      (fun (b : U.block) ->
        if in_loop b.U.b_id then
          List.iter
            (fun i ->
              match U.instr_def i with
              | Some d ->
                Hashtbl.replace def_counts d
                  (1 + Option.value ~default:0 (Hashtbl.find_opt def_counts d))
              | None -> ())
            b.U.b_instrs)
      r.U.r_blocks;
    (* Liveness is the costly test: computed at most once per loop, and
       only for an instruction that passed every other test. *)
    let live = lazy (Liveness.compute r) in
    let hoistable i =
      pure_nontrapping i
      && (match U.instr_def i with
         | Some d ->
           Hashtbl.find_opt def_counts d = Some 1
           && List.for_all
                (fun u -> not (Hashtbl.mem def_counts u))
                (U.instr_uses i)
           && not (Liveness.live_in (Lazy.force live) l.header d)
         | None -> false)
    in
    let hoisted = ref [] in
    let blocks =
      List.map
        (fun (b : U.block) ->
          if not (in_loop b.U.b_id) then b
          else
            { b with
              U.b_instrs =
                List.filter
                  (fun i ->
                    if hoistable i then begin
                      hoisted := i :: !hoisted;
                      false
                    end
                    else true)
                  b.U.b_instrs })
        r.U.r_blocks
    in
    match List.rev !hoisted with
    | [] -> (r, false)
    | hoisted ->
      (* Fresh preheader; every edge into the header from outside the
         loop is redirected through it. *)
      let ph = r.U.r_next_label in
      let redirect (b : U.block) =
        if in_loop b.U.b_id then b
        else
          { b with
            U.b_term =
              U.map_term_labels
                (fun t -> if t = l.header then ph else t)
                b.U.b_term }
      in
      let preheader =
        { U.b_id = ph; U.b_instrs = hoisted; U.b_term = U.Jump l.header }
      in
      let blocks = List.map redirect blocks @ [ preheader ] in
      ({ r with U.r_blocks = blocks; U.r_next_label = ph + 1 }, true)
  end

(** Whether a DFS from the entry over [Cfg.successors], the relation
    {!dominators} reads, meets an edge into a block still on its stack.
    Every back edge [n -> h] with [h dom n] is such an edge ([h] is on
    the DFS path to [n]; an unreachable [n] has no dominators), so a
    routine without one has no natural loop. *)
let has_retreating_edge (r : U.routine) : bool =
  let succs = Cfg.successors r in
  let on_stack = Hashtbl.create 16 in
  let rec visit l =
    match Hashtbl.find_opt on_stack l with
    | Some on -> on
    | None ->
      Hashtbl.replace on_stack l true;
      let found =
        List.exists visit (Option.value ~default:[] (U.Int_map.find_opt l succs))
      in
      Hashtbl.replace on_stack l false;
      found
  in
  visit (U.entry_block r).U.b_id

let run (r : U.routine) : U.routine * bool =
  (* Apply loops one at a time, innermost first, recomputing analyses
     after each change (routines are small). *)
  let rec go r changed =
    let rec try_loops = function
      | [] -> None
      | l :: rest -> (
        match hoist_loop r l with
        | r', true -> Some r'
        | _, false -> try_loops rest)
    in
    match try_loops (natural_loops r) with
    | Some r' -> go r' true
    | None -> (r, changed)
  in
  if has_retreating_edge r then go r false else (r, false)
