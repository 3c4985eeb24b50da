(** The register-range invariant of the dense dataflow passes. *)

module U = Ucode.Types

let check (r : U.routine) x =
  if x < 0 || x >= r.U.r_next_reg then
    invalid_arg
      (Printf.sprintf "routine %s: register r%d outside [0,%d)"
         r.U.r_name x r.U.r_next_reg)

let check_routine (r : U.routine) =
  let check = check r in
  List.iter check r.U.r_params;
  List.iter
    (fun (b : U.block) ->
      List.iter
        (fun i ->
          U.iter_instr_uses check i;
          let d = U.instr_def_reg i in
          if d >= 0 then check d)
        b.U.b_instrs;
      U.iter_term_uses check b.U.b_term)
    r.U.r_blocks
