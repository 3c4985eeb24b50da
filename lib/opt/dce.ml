(** Dead-code elimination.

    Uses liveness: a pure instruction whose destination is dead after
    it is removed.  A call whose result is dead keeps running for its
    side effects but drops its destination; a call to a routine the
    interprocedural analysis proved side-effect-free *and terminating*
    is removed outright when its result is dead — this is exactly how
    the paper's HLO erased the no-op curses calls in [072.sc] before
    inlining even started. *)

module U = Ucode.Types

(** [run ~removable r] removes dead code from [r].  [removable name]
    must answer whether a call to [name] can be deleted when its result
    is unused (side-effect-free and guaranteed to terminate). *)
let run ?(removable = fun _ -> false) (r : U.routine) : U.routine * bool =
  (* One round decides from its own input's liveness; [round_changed]
     says whether it rewrote anything (every decision below that sets
     it removes or rewrites an instruction). *)
  let pass (r : U.routine) =
    let live = Liveness.compute r in
    let round_changed = ref false in
    let rewrite_block p (b : U.block) =
      let dead_after = Liveness.dead_after live p in
      let drop () = round_changed := true; None in
      let rewrite k i =
        let dead = dead_after.(k) in
        match i with
        | U.Const _ | U.Faddr _ | U.Gaddr _ | U.Unop _ | U.Binop _ | U.Load _ ->
          if dead then drop () else Some i
        | U.Move (d, s) -> if dead || d = s then drop () else Some i
        | U.Store _ -> Some i
        | U.Call ({ c_dst = Some _; c_callee; _ } as c) when dead ->
          let deletable =
            match c_callee with
            | U.Direct n -> removable n
            | U.Indirect _ -> false
          in
          round_changed := true;
          if deletable then None else Some (U.Call { c with c_dst = None })
        | U.Call { c_dst = None; c_callee = U.Direct n; _ } when removable n ->
          drop ()
        | U.Call _ -> Some i
      in
      { b with U.b_instrs = List.filter_map Fun.id (List.mapi rewrite b.U.b_instrs) }
    in
    let r' = { r with U.r_blocks = List.mapi rewrite_block r.U.r_blocks } in
    (r', !round_changed)
  in
  (* Removing an instruction can kill its operands' last uses; iterate
     to a fixpoint (bounded — each round removes at least one instr). *)
  let rec loop r n changed =
    if n = 0 then (r, changed)
    else
      let r', round_changed = pass r in
      if round_changed then loop r' (n - 1) true else (r, changed)
  in
  loop r 50 false
