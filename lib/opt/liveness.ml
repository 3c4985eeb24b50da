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

type t = {
  routine : U.routine;
  blocks : U.block array;           (** in routine order *)
  pos : (U.label, int) Hashtbl.t;   (** block label -> position *)
  words : int;                      (** ints per bitset *)
  live_in : int array;              (** position * words + word *)
  live_out : int array;
}

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

let compute (r : U.routine) : t =
  List.iter (Regs.check r) r.U.r_params;
  let { Cfg.blocks; index = pos; succs } = Cfg.positions r in
  let nb = Array.length blocks in
  let words = (r.U.r_next_reg + bits - 1) / bits in
  (* gen: used before any definition in the block; kill: defined. *)
  let gen = Array.make (nb * words) 0 and kill = Array.make (nb * words) 0 in
  Array.iteri
    (fun p (b : U.block) ->
      let base = p * words in
      let use x = Regs.check r x; add gen base x in
      List.iter use (U.term_uses b.U.b_term);
      List.iter
        (fun i ->
          (match U.instr_def i with
          | Some d ->
            Regs.check r d;
            remove gen base d;
            add kill base d
          | None -> ());
          List.iter use (U.instr_uses i))
        (List.rev b.U.b_instrs))
    blocks;
  let live_in = Array.make (nb * words) 0 in
  let live_out = Array.make (nb * words) 0 in
  let changed = ref true in
  while !changed do
    changed := false;
    (* Sweep in reverse block order; convergence does not depend on
       it, speed does. *)
    for p = nb - 1 downto 0 do
      let base = p * words and ss = succs.(p) in
      for w = 0 to words - 1 do
        let out = ref 0 in
        List.iter (fun s -> out := !out lor live_in.((s * words) + w)) ss;
        live_out.(base + w) <- !out;
        let in_ = gen.(base + w) lor (!out land lnot kill.(base + w)) in
        if in_ <> live_in.(base + w) then begin
          live_in.(base + w) <- in_;
          changed := true
        end
      done
    done
  done;
  { routine = r; blocks; pos; words; live_in; live_out }

let live_in t l x =
  Regs.check t.routine x;
  match Hashtbl.find_opt t.pos l with
  | Some p -> mem t.live_in (p * t.words) x
  | None -> false

let iter_query set f t l =
  match Hashtbl.find_opt t.pos l with
  | Some p -> iter_set f set (p * t.words) t.words
  | None -> ()

let iter_live_in f t l = iter_query t.live_in f t l
let iter_live_out f t l = iter_query t.live_out f t l

(** Walk the block at position [p] backwards, calling [f k i live] on
    each instruction [i] (index [k]) with [live] the registers live
    right after it. *)
let walk_back t p f =
  let b = t.blocks.(p) in
  let live = Array.sub t.live_out (p * t.words) t.words in
  List.iter (add live 0) (U.term_uses b.U.b_term);
  let k = ref (List.length b.U.b_instrs) in
  List.iter
    (fun i ->
      decr k;
      f !k i live;
      (match U.instr_def i with Some d -> remove live 0 d | None -> ());
      List.iter (add live 0) (U.instr_uses i))
    (List.rev b.U.b_instrs)

let dead_after t p =
  let dead = Array.make (List.length t.blocks.(p).U.b_instrs) false in
  walk_back t p (fun k i live ->
      match U.instr_def i with
      | Some d -> dead.(k) <- not (mem live 0 d)
      | None -> ());
  dead

(** Registers live immediately after each call instruction, excluding
    the call's own destination: the values a caller must preserve
    around the call.  Result: site id -> live set. *)
let live_across_calls (r : U.routine) : U.Int_set.t U.Int_map.t =
  let t = compute r in
  let acc = ref U.Int_map.empty in
  Array.iteri
    (fun p _ ->
      (* Collected backwards, added forwards: a repeated site id keeps
         its last occurrence. *)
      let calls = ref [] in
      walk_back t p (fun _ i live ->
          match i with
          | U.Call { c_site; c_dst; _ } ->
            let set = ref U.Int_set.empty in
            iter_set (fun x -> set := U.Int_set.add x !set) live 0 t.words;
            let set =
              match c_dst with Some d -> U.Int_set.remove d !set | None -> !set
            in
            calls := (c_site, set) :: !calls
          | _ -> ());
      List.iter (fun (s, set) -> acc := U.Int_map.add s set !acc) !calls)
    t.blocks;
  !acc
