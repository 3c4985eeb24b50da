(** The register-range invariant of the dense dataflow passes. *)

module U = Ucode.Types

let check (r : U.routine) x =
  if x < 0 || x >= r.U.r_next_reg then
    invalid_arg
      (Printf.sprintf "routine %s: register r%d outside [0,%d)"
         r.U.r_name x r.U.r_next_reg)

let check_routine (r : U.routine) =
  List.iter (check r) r.U.r_params;
  List.iter
    (fun (b : U.block) ->
      List.iter
        (fun i ->
          List.iter (check r) (U.instr_uses i);
          Option.iter (check r) (U.instr_def i))
        b.U.b_instrs;
      List.iter (check r) (U.term_uses b.U.b_term))
    r.U.r_blocks
