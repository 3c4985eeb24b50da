(** Block-local copy propagation.

    Within a basic block, a [Move (d, s)] makes [d] an alias of [s]
    until either is redefined; subsequent uses of [d] are rewritten to
    the root of the copy chain.  Runs after inlining (which introduces
    parameter-binding moves) and before CSE/DCE, which then erase the
    now-dead moves. *)

module U = Ucode.Types

let run (r : U.routine) : U.routine * bool =
  let changed = ref false in
  (* [copies.(d) = s]: d currently holds the same value as s, or d
     itself when it is no copy.  [aliases.(s)] lists every d ever
     recorded with root s since s was last invalidated — a superset of
     its live aliases.  Both are made once per routine and reset after
     each block, only at the registers the block touched.  Every index
     is checked against [r_next_reg] first. *)
  let copies = Array.init r.U.r_next_reg Fun.id in
  let aliases = Array.make r.U.r_next_reg [] in
  let touched = ref [] in
  let resolve x =
    Regs.check r x;
    copies.(x)
  in
  (* A use or terminator register that resolves elsewhere is exactly
     what makes the output differ from the input. *)
  let rewrite_use x =
    let root = resolve x in
    if root <> x then changed := true;
    root
  in
  let invalidate d =
    Regs.check r d;
    copies.(d) <- d;
    (* Any alias whose root is d is now stale. *)
    match aliases.(d) with
    | [] -> ()
    | ds ->
      List.iter (fun k -> if copies.(k) = d then copies.(k) <- k) ds;
      aliases.(d) <- []
  in
  let record d root =
    copies.(d) <- root;
    aliases.(root) <- d :: aliases.(root);
    touched := d :: root :: !touched
  in
  let rewrite_instr i =
    let i' = U.map_instr_uses rewrite_use i in
    (match U.instr_def i' with Some d -> invalidate d | None -> ());
    (match i' with
    | U.Move (d, s) when d <> s -> record d (resolve s)
    | _ -> ());
    i'
  in
  let rewrite_block (b : U.block) =
    let instrs = List.map rewrite_instr b.U.b_instrs in
    let term = U.map_term_regs rewrite_use b.U.b_term in
    List.iter
      (fun x ->
        copies.(x) <- x;
        aliases.(x) <- [])
      !touched;
    touched := [];
    { b with U.b_instrs = instrs; U.b_term = term }
  in
  let blocks = List.map rewrite_block r.U.r_blocks in
  ({ r with U.r_blocks = blocks }, !changed)
