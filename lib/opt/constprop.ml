(** Conditional constant propagation with folding, algebraic
    simplification, constant-branch folding and — the enabler of the
    paper's staged indirect-call optimization — devirtualization of
    indirect calls whose callee register provably holds one function
    handle.

    A classic forward dataflow over the lattice
    [Undef < Const k / Fun f < Nac].  Since the IR is not SSA the
    transform cannot substitute constants into *uses*; instead it
    rewrites defining instructions (fold to [Const]), turns [Move]s of
    known constants into [Const], folds branches, and relies on
    copy-propagation/CSE/DCE downstream to clean up. *)

module U = Ucode.Types

type value = Undef | Const of int64 | Fun of string | Nac

let join a b =
  match (a, b) with
  | Undef, x | x, Undef -> x
  | Const x, Const y when Int64.equal x y -> Const x
  | Fun f, Fun g when String.equal f g -> Fun f
  | _ -> Nac

let value_equal a b =
  match (a, b) with
  | Undef, Undef | Nac, Nac -> true
  | Const x, Const y -> Int64.equal x y
  | Fun f, Fun g -> String.equal f g
  | _ -> false

(** An abstract state: one value per register, dense below
    [r_next_reg] ({!Regs}). *)
type env = value array

let env_equal (a : env) (b : env) =
  let rec go i = i < 0 || (value_equal a.(i) b.(i) && go (i - 1)) in
  go (Array.length a - 1)

(** [join_into a b]: [a] becomes the pointwise join of [a] and [b]. *)
let join_into (a : env) (b : env) = Array.iteri (fun i v -> a.(i) <- join a.(i) v) b

(** Fold a binary operation over known constants.  Division and
    remainder by zero are left alone so the trap is preserved. *)
let fold_binop op a b =
  let open Int64 in
  let of_bool v = if v then 1L else 0L in
  match op with
  | U.Add -> Some (add a b)
  | U.Sub -> Some (sub a b)
  | U.Mul -> Some (mul a b)
  | U.Div -> if equal b 0L then None else Some (div a b)
  | U.Rem -> if equal b 0L then None else Some (rem a b)
  | U.And -> Some (logand a b)
  | U.Or -> Some (logor a b)
  | U.Xor -> Some (logxor a b)
  | U.Shl -> Some (shift_left a (to_int (logand b 63L)))
  | U.Shr -> Some (shift_right a (to_int (logand b 63L)))
  | U.Eq -> Some (of_bool (equal a b))
  | U.Ne -> Some (of_bool (not (equal a b)))
  | U.Lt -> Some (of_bool (compare a b < 0))
  | U.Le -> Some (of_bool (compare a b <= 0))
  | U.Gt -> Some (of_bool (compare a b > 0))
  | U.Ge -> Some (of_bool (compare a b >= 0))

let fold_unop op a =
  match op with
  | U.Neg -> Int64.neg a
  | U.Not -> if Int64.equal a 0L then 1L else 0L

(** Abstract transfer of one instruction, in place. *)
let transfer (env : env) (i : U.instr) : unit =
  let get x = env.(x) and set x v = env.(x) <- v in
  match i with
  | U.Const (d, k) -> set d (Const k)
  | U.Faddr (d, f) -> set d (Fun f)
  | U.Gaddr (d, _) -> set d Nac
  | U.Unop (d, op, a) ->
    set d
      (match get a with
      | Const k -> Const (fold_unop op k)
      | Undef -> Undef
      | Fun _ | Nac -> Nac)
  | U.Binop (d, op, a, b) ->
    set d
      (match (get a, get b) with
      | Const x, Const y -> (
        match fold_binop op x y with Some k -> Const k | None -> Nac)
      | Undef, _ | _, Undef -> Undef
      | _ -> Nac)
  | U.Move (d, a) -> set d (get a)
  | U.Load (d, _) -> set d Nac
  | U.Store _ -> ()
  | U.Call { c_dst = Some d; _ } -> set d Nac
  | U.Call { c_dst = None; _ } -> ()

(** Converged state at the entry of every block, by block position;
    [None] for a block no path from the entry reaches.  A block's
    out-state is cached and recomputed only when its in-state
    changes. *)
let analyze (r : U.routine) : env option array =
  ignore (U.entry_block r);
  Regs.check_routine r;
  let { Cfg.blocks; succs; _ } = Cfg.positions r in
  let nb = Array.length blocks in
  let preds = Array.make nb [] in
  Array.iteri
    (fun p ss -> List.iter (fun s -> preds.(s) <- p :: preds.(s)) ss)
    succs;
  (* Reverse postorder from the entry. *)
  let seen = Array.make nb false in
  let rpo = ref [] in
  let rec visit p =
    if not seen.(p) then begin
      seen.(p) <- true;
      List.iter visit succs.(p);
      rpo := p :: !rpo
    end
  in
  visit 0;
  (* Parameters hold unknown values on entry. *)
  let entry_env = Array.make r.U.r_next_reg Undef in
  List.iter (fun p -> entry_env.(p) <- Nac) r.U.r_params;
  let in_states = Array.make nb None in
  in_states.(0) <- Some entry_env;
  let out_states = Array.make nb None in
  let out_of p =
    match out_states.(p) with
    | Some _ as out -> out
    | None -> (
      match in_states.(p) with
      | None -> None
      | Some env ->
        let out = Array.copy env in
        List.iter (transfer out) blocks.(p).U.b_instrs;
        out_states.(p) <- Some out;
        Some out)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun p ->
        if p <> 0 then begin
          let merged =
            List.fold_left
              (fun acc q ->
                match (acc, out_of q) with
                | _, None -> acc
                | None, Some out -> Some (Array.copy out)
                | Some m, Some out -> join_into m out; acc)
              None preds.(p)
          in
          match merged with
          | None -> ()  (* unreachable: leave absent (all-Undef) *)
          | Some merged -> (
            match in_states.(p) with
            | Some old when env_equal old merged -> ()
            | _ ->
              in_states.(p) <- Some merged;
              out_states.(p) <- None;
              changed := true)
        end)
      !rpo
  done;
  in_states

(** Abstract values of the arguments at every call site of [r]:
    site id -> one lattice value per actual argument.  This is the raw
    material of HLO's calling-context descriptors S(E) — "the caller
    passes integer 0 as the first actual". *)
let values_at_calls (r : U.routine) : value list U.Int_map.t =
  let in_states = analyze r in
  let acc = ref U.Int_map.empty in
  List.iteri
    (fun p (b : U.block) ->
      match in_states.(p) with
      | None -> ()  (* unreachable block *)
      | Some env0 ->
        let env = Array.copy env0 in
        List.iter
          (fun i ->
            (match i with
            | U.Call { c_site; c_args; _ } ->
              acc := U.Int_map.add c_site (List.map (Array.get env) c_args) !acc
            | _ -> ());
            transfer env i)
          b.U.b_instrs)
    r.U.r_blocks;
  !acc

(** Rewrite the routine using the analysis.  Returns the new routine
    and whether anything changed.

    [arity_of] guards devirtualization: an indirect call is only turned
    direct when the argument count matches the target's parameters —
    a mismatched indirect call is a dynamic error, and rewriting it
    into a (pad-with-zeros) direct call would change behavior. *)
let run ?(arity_of = fun (_ : string) -> (None : int option))
    (r : U.routine) : U.routine * bool =
  let in_states = analyze r in
  let changed = ref false in
  let rewrite_block p (b : U.block) =
    match in_states.(p) with
    | None -> b  (* unreachable; simplify will drop it *)
    | Some env0 ->
      let env = Array.copy env0 in
      let rewrite_instr i =
        let const_of r = match env.(r) with Const k -> Some k | _ -> None in
        let i' =
          match i with
          | U.Unop (d, op, a) -> (
            match const_of a with
            | Some k -> U.Const (d, fold_unop op k)
            | None -> i)
          | U.Binop (d, op, a, b_) -> (
            match (const_of a, const_of b_) with
            | Some x, Some y -> (
              match fold_binop op x y with
              | Some k -> U.Const (d, k)
              | None -> i)
            | _, Some 0L when op = U.Add || op = U.Sub || op = U.Or
                              || op = U.Xor || op = U.Shl || op = U.Shr ->
              U.Move (d, a)
            | Some 0L, _ when op = U.Add || op = U.Or || op = U.Xor ->
              U.Move (d, b_)
            | _, Some 1L when op = U.Mul || op = U.Div -> U.Move (d, a)
            | Some 1L, _ when op = U.Mul -> U.Move (d, b_)
            | Some 0L, _ when op = U.Mul || op = U.And -> U.Const (d, 0L)
            | _, Some 0L when op = U.Mul || op = U.And -> U.Const (d, 0L)
            | _ -> i)
          | U.Move (d, a) -> (
            match env.(a) with
            | Const k -> U.Const (d, k)
            | Fun f -> U.Faddr (d, f)
            | Undef | Nac -> i)
          | U.Call ({ c_callee = U.Indirect h; _ } as c) -> (
            match env.(h) with
            | Fun f when arity_of f = Some (List.length c.U.c_args) ->
              U.Call { c with c_callee = U.Direct f }
            | _ -> i)
          | _ -> i
        in
        (* Every arm that does not rewrite returns [i] itself, and every
           rewrite differs from [i], so identity is the changed test. *)
        if i' != i then changed := true;
        transfer env i;  (* transfer of the original is identical *)
        i'
      in
      let instrs = List.map rewrite_instr b.U.b_instrs in
      let term =
        match b.U.b_term with
        | U.Branch (c, l1, l2) -> (
          match env.(c) with
          | Const k ->
            changed := true;
            U.Jump (if Int64.equal k 0L then l2 else l1)
          | _ -> b.U.b_term)
        | t -> t
      in
      { b with U.b_instrs = instrs; U.b_term = term }
  in
  let blocks = List.mapi rewrite_block r.U.r_blocks in
  ({ r with U.r_blocks = blocks }, !changed)
