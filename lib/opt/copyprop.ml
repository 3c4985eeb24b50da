(** Block-local copy propagation.

    Within a basic block, a [Move (d, s)] makes [d] an alias of [s]
    until either is redefined; subsequent uses of [d] are rewritten to
    the root of the copy chain.  Runs after inlining (which introduces
    parameter-binding moves) and before CSE/DCE, which then erase the
    now-dead moves. *)

module U = Ucode.Types

let run (r : U.routine) : U.routine * bool =
  let changed = ref false in
  let rewrite_block (b : U.block) =
    (* copies d = s: d currently holds the same value as s.  aliases s
       lists every d ever recorded with root s since s was last
       invalidated — a superset of its live aliases. *)
    let copies = Hashtbl.create 16 in
    let aliases = Hashtbl.create 16 in
    let resolve x =
      match Hashtbl.find_opt copies x with Some root -> root | None -> x
    in
    (* A use or terminator register that resolves elsewhere is exactly
       what makes the output differ from the input. *)
    let rewrite_use x =
      let root = resolve x in
      if root <> x then changed := true;
      root
    in
    let invalidate d =
      Hashtbl.remove copies d;
      (* Any alias whose root is d is now stale. *)
      match Hashtbl.find_opt aliases d with
      | None -> ()
      | Some ds ->
        List.iter
          (fun k ->
            match Hashtbl.find_opt copies k with
            | Some root when root = d -> Hashtbl.remove copies k
            | _ -> ())
          ds;
        Hashtbl.remove aliases d
    in
    let record d root =
      Hashtbl.replace copies d root;
      Hashtbl.replace aliases root
        (d :: Option.value ~default:[] (Hashtbl.find_opt aliases root))
    in
    let rewrite_instr i =
      let i' = U.map_instr_uses rewrite_use i in
      (match U.instr_def i' with Some d -> invalidate d | None -> ());
      (match i' with
      | U.Move (d, s) when d <> s -> record d (resolve s)
      | _ -> ());
      i'
    in
    let instrs = List.map rewrite_instr b.U.b_instrs in
    let term = U.map_term_regs rewrite_use b.U.b_term in
    { b with U.b_instrs = instrs; U.b_term = term }
  in
  let blocks = List.map rewrite_block r.U.r_blocks in
  ({ r with U.r_blocks = blocks }, !changed)
