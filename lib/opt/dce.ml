(** Dead-code elimination.

    Uses liveness: a pure instruction whose destination is dead after
    it is removed.  A call whose result is dead keeps running for its
    side effects but drops its destination; a call to a routine the
    interprocedural analysis proved side-effect-free *and terminating*
    is removed outright when its result is dead — this is exactly how
    the paper's HLO erased the no-op curses calls in [072.sc] before
    inlining even started.

    One call solves liveness once and walks each block backwards once,
    unless a walk removed something that changes another block.  The
    walk does not add a removed instruction's operands to the live
    set, so a chain of dead code inside a block goes in the same walk.
    After a walk that removed something, the rewritten blocks' gen and
    kill are recomputed and liveness is solved again; a block whose
    live-out shrank is walked again.  Every rule either removes uses or
    removes a definition of a dead register, so liveness only shrinks
    and a rule that can fire keeps being able to: the result is the
    one normal form, the same as repeating whole rounds until one
    removes nothing, and every extra walk follows a removal. *)

module U = Ucode.Types
module L = Liveness

(** [run ~removable r] removes dead code from [r].  [removable name]
    must answer whether a call to [name] can be deleted when its result
    is unused (side-effect-free and guaranteed to terminate). *)
let run ?(removable = fun _ -> false) (r : U.routine) : U.routine * bool =
  let { Cfg.blocks; succs; _ } = Cfg.positions r in
  let nb = Array.length blocks in
  let instrs = Array.map (fun (b : U.block) -> Array.of_list b.U.b_instrs) blocks in
  let kept = Array.map (fun is -> Array.make (Array.length is) true) instrs in
  let s = L.create r succs in
  let scan ?check p =
    let is = instrs.(p) and ks = kept.(p) in
    L.scan ?check s p blocks.(p).U.b_term (fun f ->
        for k = Array.length is - 1 downto 0 do
          if ks.(k) then f is.(k)
        done)
  in
  (* Every register is checked here, in [Liveness.compute]'s order. *)
  let check = Regs.check r in
  List.iter check r.U.r_params;
  for p = 0 to nb - 1 do
    scan ~check p
  done;
  L.solve s;
  let words = s.L.words in
  let live = Array.make words 0 in
  let live_use x = L.add live 0 x in
  (* [rewritten]: the block's output differs from its input. *)
  let rewritten = Array.make nb false in
  (* Walk block [p] backwards from its live-out; true if it removed an
     instruction. *)
  let walk p =
    let is = instrs.(p) and ks = kept.(p) in
    Array.blit s.L.live_out (p * words) live 0 words;
    U.iter_term_uses live_use blocks.(p).U.b_term;
    let removed = ref false in
    let drop k =
      ks.(k) <- false;
      removed := true;
      rewritten.(p) <- true
    in
    for k = Array.length is - 1 downto 0 do
      if ks.(k) then begin
        let i = is.(k) in
        let d = U.instr_def_reg i in
        let dead = d >= 0 && not (L.mem live 0 d) in
        match i with
        | (U.Const _ | U.Faddr _ | U.Gaddr _ | U.Unop _ | U.Binop _ | U.Load _)
          when dead ->
          drop k
        | U.Move (dst, src) when dead || dst = src -> drop k
        | U.Call ({ c_dst = Some _; c_callee; _ } as c) when dead -> (
          match c_callee with
          | U.Direct n when removable n -> drop k
          | U.Direct _ | U.Indirect _ ->
            is.(k) <- U.Call { c with c_dst = None };
            rewritten.(p) <- true;
            U.iter_instr_uses live_use i)
        | U.Call { c_dst = None; c_callee = U.Direct n; _ } when removable n ->
          drop k
        | _ ->
          if d >= 0 then L.remove live 0 d;
          U.iter_instr_uses live_use i
      end
    done;
    !removed
  in
  (* Dropping a dead call's destination leaves every live set as it
     was; only a removal sends the sweep round again. *)
  let rec sweep todo =
    let removed = ref false in
    for p = 0 to nb - 1 do
      if todo.(p) && walk p then removed := true
    done;
    if !removed then begin
      for p = 0 to nb - 1 do
        if rewritten.(p) then scan p
      done;
      let before = Array.copy s.L.live_out in
      L.solve s;
      let shrank p =
        let base = p * words and out = s.L.live_out in
        let rec differs w =
          w < words && (out.(base + w) <> before.(base + w) || differs (w + 1))
        in
        differs 0
      in
      let todo = Array.init nb shrank in
      if Array.exists Fun.id todo then sweep todo
    end
  in
  sweep (Array.make nb true);
  if not (Array.exists Fun.id rewritten) then (r, false)
  else
    let block p (b : U.block) =
      if not rewritten.(p) then b
      else begin
        let is = instrs.(p) and ks = kept.(p) in
        let out = ref [] in
        for k = Array.length is - 1 downto 0 do
          if ks.(k) then out := is.(k) :: !out
        done;
        { b with U.b_instrs = !out }
      end
    in
    ({ r with U.r_blocks = Array.to_list (Array.mapi block blocks) }, true)
