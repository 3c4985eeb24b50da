(** Block-local common-subexpression elimination (local value
    numbering).

    Pure computations ([Const], [Faddr], [Gaddr], [Unop], [Binop]) and
    [Load]s are hashed; a recomputation becomes a [Move] from the
    register already holding the value.  An entry dies when any
    register it mentions is redefined; [Load] entries additionally die
    at every [Store] and every [Call] (calls may write memory). *)

module U = Ucode.Types

type key =
  | Kconst of int64
  | Kfaddr of string
  | Kgaddr of string
  | Kunop of U.unop * U.reg
  | Kbinop of U.binop * U.reg * U.reg
  | Kload of U.reg

let key_of_instr = function
  | U.Const (_, k) -> Some (Kconst k)
  | U.Faddr (_, n) -> Some (Kfaddr n)
  | U.Gaddr (_, n) -> Some (Kgaddr n)
  | U.Unop (_, op, a) -> Some (Kunop (op, a))
  | U.Binop (_, op, a, b) ->
    (* Normalize commutative operations. *)
    let commutative =
      match op with
      | U.Add | U.Mul | U.And | U.Or | U.Xor | U.Eq | U.Ne -> true
      | _ -> false
    in
    if commutative && a > b then Some (Kbinop (op, b, a)) else Some (Kbinop (op, a, b))
  | U.Move _ | U.Store _ | U.Call _ | U.Load _ -> None

let key_regs = function
  | Kconst _ | Kfaddr _ | Kgaddr _ -> []
  | Kunop (_, a) -> [ a ]
  | Kbinop (_, a, b) -> [ a; b ]
  | Kload a -> [ a ]

let run (r : U.routine) : U.routine * bool =
  let changed = ref false in
  let rewrite_block (b : U.block) =
    (* Pure keys and load keys live in separate tables, so a store or
       call clears only the loads.  [users x] lists every key recorded
       with [x] as holder or operand since [x] was last redefined — a
       superset of the entries [x]'s redefinition must remove. *)
    let table : (key, U.reg) Hashtbl.t = Hashtbl.create 16 in
    let loads : (key, U.reg) Hashtbl.t = Hashtbl.create 16 in
    let users : (U.reg, key list) Hashtbl.t = Hashtbl.create 16 in
    let table_of = function Kload _ -> loads | _ -> table in
    let note x k =
      Hashtbl.replace users x
        (k :: Option.value ~default:[] (Hashtbl.find_opt users x))
    in
    let record k holder =
      Hashtbl.replace (table_of k) k holder;
      note holder k;
      List.iter (fun x -> note x k) (key_regs k)
    in
    let find k = Hashtbl.find_opt (table_of k) k in
    let invalidate d =
      match Hashtbl.find_opt users d with
      | None -> ()
      | Some ks ->
        List.iter
          (fun k ->
            match find k with
            | Some holder when holder = d || List.mem d (key_regs k) ->
              Hashtbl.remove (table_of k) k
            | _ -> ())
          ks;
        Hashtbl.remove users d
    in
    let clobber_memory () = Hashtbl.reset loads in
    let rewrite_instr i =
      match i with
      | U.Store _ ->
        clobber_memory ();
        i
      | U.Call _ ->
        clobber_memory ();
        (match U.instr_def i with Some d -> invalidate d | None -> ());
        i
      | U.Load (d, a) -> (
        match find (Kload a) with
        | Some holder when holder <> d ->
          changed := true;
          invalidate d;
          (* Keep [holder] as the canonical copy, unless the key itself
             mentions the just-redefined register. *)
          if a <> d then record (Kload a) holder;
          U.Move (d, holder)
        | _ ->
          invalidate d;
          if d <> a then record (Kload a) d;
          i)
      | _ -> (
        match key_of_instr i with
        | None ->
          (match U.instr_def i with Some d -> invalidate d | None -> ());
          i
        | Some k -> (
          match find k with
          | Some holder ->
            let d = Option.get (U.instr_def i) in
            if holder = d then i
            else begin
              changed := true;
              invalidate d;
              (* Re-register: invalidate may have dropped [k] if it
                 mentions [d]. *)
              if not (List.mem d (key_regs k)) then record k holder;
              U.Move (d, holder)
            end
          | None ->
            let d = Option.get (U.instr_def i) in
            invalidate d;
            if not (List.mem d (key_regs k)) then record k d;
            i))
    in
    { b with U.b_instrs = List.map rewrite_instr b.U.b_instrs }
  in
  let blocks = List.map rewrite_block r.U.r_blocks in
  ({ r with U.r_blocks = blocks }, !changed)
