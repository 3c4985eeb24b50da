(** Backward liveness analysis over virtual registers.

    Used by dead-code elimination and, crucially, by the machine back
    end: the set of registers live across each call site determines the
    caller-save traffic that inlining later eliminates — the mechanism
    behind the paper's observed drop in D-cache accesses.

    Registers are dense below [r_next_reg] ({!Regs}), so a live set is
    a bitset of [words] ints, 63 registers to a word, and the sets of
    all blocks sit in one flat array indexed by block position. *)

module U = Ucode.Types

let bits = 63

let add set base x =
  let w = base + (x / bits) in
  set.(w) <- set.(w) lor (1 lsl (x mod bits))

let remove set base x =
  let w = base + (x / bits) in
  set.(w) <- set.(w) land lnot (1 lsl (x mod bits))

let mem set base x = set.(base + (x / bits)) land (1 lsl (x mod bits)) <> 0

(** [f] on every member of the bitset at [base], in increasing order. *)
let iter_set f set base words =
  for w = 0 to words - 1 do
    let x = ref set.(base + w) and b = ref (w * bits) in
    while !x <> 0 do
      if !x land 1 <> 0 then f !b;
      x := !x lsr 1;
      incr b
    done
  done

type sets = {
  words : int;
  succs : int list array;
  gen : int array;
  kill : int array;
  live_in : int array;
  live_out : int array;
}

let create (r : U.routine) succs =
  let words = (r.U.r_next_reg + bits - 1) / bits in
  let n = Array.length succs * words in
  { words; succs; gen = Array.make n 0; kill = Array.make n 0;
    live_in = Array.make n 0; live_out = Array.make n 0 }

let scan ?(check = ignore) s p term iter_back =
  let base = p * s.words in
  Array.fill s.gen base s.words 0;
  Array.fill s.kill base s.words 0;
  let use x = check x; add s.gen base x in
  U.iter_term_uses use term;
  iter_back (fun i ->
      let d = U.instr_def_reg i in
      if d >= 0 then begin
        check d;
        remove s.gen base d;
        add s.kill base d
      end;
      U.iter_instr_uses use i)

let solve s =
  let { words; succs; gen; kill; live_in; live_out } = s in
  Array.fill live_in 0 (Array.length live_in) 0;
  let rec union w acc = function
    | [] -> acc
    | q :: rest -> union w (acc lor live_in.((q * words) + w)) rest
  in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Sweep in reverse block order; convergence does not depend on
       it, speed does. *)
    for p = Array.length succs - 1 downto 0 do
      let base = p * words and ss = succs.(p) in
      for w = 0 to words - 1 do
        let out = union w 0 ss in
        live_out.(base + w) <- out;
        let in_ = gen.(base + w) lor (out land lnot kill.(base + w)) in
        if in_ <> live_in.(base + w) then begin
          live_in.(base + w) <- in_;
          changed := true
        end
      done
    done
  done

type t = {
  routine : U.routine;
  blocks : U.block array;           (** in routine order *)
  pos : (U.label, int) Hashtbl.t;   (** block label -> position *)
  sets : sets;
}

let compute (r : U.routine) : t =
  let check = Regs.check r in
  List.iter check r.U.r_params;
  let { Cfg.blocks; index = pos; succs } = Cfg.positions r in
  let s = create r succs in
  Array.iteri
    (fun p (b : U.block) ->
      let instrs = Array.of_list b.U.b_instrs in
      scan ~check s p b.U.b_term (fun f ->
          for k = Array.length instrs - 1 downto 0 do
            f instrs.(k)
          done))
    blocks;
  solve s;
  { routine = r; blocks; pos; sets = s }

let live_in t l x =
  Regs.check t.routine x;
  match Hashtbl.find_opt t.pos l with
  | Some p -> mem t.sets.live_in (p * t.sets.words) x
  | None -> false

let iter_query set f t l =
  match Hashtbl.find_opt t.pos l with
  | Some p -> iter_set f set (p * t.sets.words) t.sets.words
  | None -> ()

let iter_live_in f t l = iter_query t.sets.live_in f t l
let iter_live_out f t l = iter_query t.sets.live_out f t l

(** Registers live immediately after each call instruction, excluding
    the call's own destination: the values a caller must preserve
    around the call.  Result: site id -> live set. *)
let live_across_calls (r : U.routine) : U.Int_set.t U.Int_map.t =
  let t = compute r in
  let words = t.sets.words in
  let acc = ref U.Int_map.empty in
  Array.iteri
    (fun p (b : U.block) ->
      (* Walk the block backwards with [live] the registers live right
         after each instruction.  Calls are collected backwards and
         added forwards: a repeated site id keeps its last occurrence. *)
      let live = Array.sub t.sets.live_out (p * words) words in
      let live_use x = add live 0 x in
      U.iter_term_uses live_use b.U.b_term;
      let calls = ref [] in
      List.iter
        (fun i ->
          (match i with
          | U.Call { c_site; c_dst; _ } ->
            let set = ref U.Int_set.empty in
            iter_set (fun x -> set := U.Int_set.add x !set) live 0 words;
            let set =
              match c_dst with Some d -> U.Int_set.remove d !set | None -> !set
            in
            calls := (c_site, set) :: !calls
          | _ -> ());
          let d = U.instr_def_reg i in
          if d >= 0 then remove live 0 d;
          U.iter_instr_uses live_use i)
        (List.rev b.U.b_instrs);
      List.iter (fun (s, set) -> acc := U.Int_map.add s set !acc) !calls)
    t.blocks;
  !acc
