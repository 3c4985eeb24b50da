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

(* Keys are compared and hashed by hand: polymorphic compare and hash
   are C calls on every lookup.  Operators are constant constructors,
   so [==] on them is equality; the hash leaves them out and [equal]
   tells apart the few keys that share their registers. *)
module Tbl = Hashtbl.Make (struct
  type t = key

  let equal a b =
    match (a, b) with
    | Kconst x, Kconst y -> Int64.equal x y
    | Kfaddr x, Kfaddr y | Kgaddr x, Kgaddr y -> String.equal x y
    | Kunop (o, x), Kunop (o', x') -> o == o' && x = x'
    | Kbinop (o, x, y), Kbinop (o', x', y') -> o == o' && x = x' && y = y'
    | Kload x, Kload x' -> x = x'
    | _ -> false

  let hash = function
    | Kconst k -> Int64.to_int k
    | Kfaddr n -> 1 + (31 * Hashtbl.hash n)
    | Kgaddr n -> 2 + (31 * Hashtbl.hash n)
    | Kunop (_, x) -> 3 + (31 * x)
    | Kbinop (_, x, y) -> 4 + (31 * (x + (65599 * y)))
    | Kload x -> 5 + (31 * x)
end)

let iter_key_regs f = function
  | Kconst _ | Kfaddr _ | Kgaddr _ -> ()
  | Kunop (_, a) | Kload a -> f a
  | Kbinop (_, a, b) -> f a; f b

let mentions d = function
  | Kconst _ | Kfaddr _ | Kgaddr _ -> false
  | Kunop (_, a) | Kload a -> a = d
  | Kbinop (_, a, b) -> a = d || b = d

let run (r : U.routine) : U.routine * bool =
  let changed = ref false in
  (* Pure keys and load keys live in separate tables, so a store or
     call clears only the loads.  [users.(x)] lists every key recorded
     with [x] as holder or operand since [x] was last redefined — a
     superset of the entries [x]'s redefinition must remove.  The
     state is made once per routine and emptied after each block,
     [users] only at the registers the block noted (so its lists stay
     as short as a fresh table's).  Every index into [users] is checked
     against [r_next_reg] first. *)
  let table : U.reg Tbl.t = Tbl.create 16 in
  let loads : U.reg Tbl.t = Tbl.create 16 in
  let users : key list array = Array.make r.U.r_next_reg [] in
  let noted = ref [] in
  let table_of = function Kload _ -> loads | _ -> table in
  let note x k =
    Regs.check r x;
    (match users.(x) with [] -> noted := x :: !noted | _ :: _ -> ());
    users.(x) <- k :: users.(x)
  in
  let record k holder =
    Tbl.replace (table_of k) k holder;
    note holder k;
    iter_key_regs (fun x -> note x k) k
  in
  let find k = Tbl.find_opt (table_of k) k in
  let invalidate d =
    Regs.check r d;
    match users.(d) with
    | [] -> ()
    | ks ->
      List.iter
        (fun k ->
          match find k with
          | Some holder when holder = d || mentions d k ->
            Tbl.remove (table_of k) k
          | _ -> ())
        ks;
      users.(d) <- []
  in
  let clobber_memory () = Tbl.reset loads in
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
            if not (mentions d k) then record k holder;
            U.Move (d, holder)
          end
        | None ->
          let d = Option.get (U.instr_def i) in
          invalidate d;
          if not (mentions d k) then record k d;
          i))
  in
  let rewrite_block (b : U.block) =
    let instrs = List.map rewrite_instr b.U.b_instrs in
    Tbl.reset table;
    Tbl.reset loads;
    List.iter (fun x -> users.(x) <- []) !noted;
    noted := [];
    { b with U.b_instrs = instrs }
  in
  let blocks = List.map rewrite_block r.U.r_blocks in
  ({ r with U.r_blocks = blocks }, !changed)
