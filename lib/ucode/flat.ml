(** A packed, int-indexed, read-only view of a routine body.

    The block-list IR ({!Types.routine}) is pleasant to transform but
    expensive to *query*: every size, hash or loop-structure question
    walks a pointer-chasing list-of-lists, allocating as it goes, and
    the GC pays for it on every domain of a parallel compile.  This
    module flattens one routine version into a handful of immutable
    int arrays — one row per instruction, side pools for call
    arguments, constants and interned names — built in a single walk.
    The hot consumers (the identity-excluding body digest behind the
    summary cache and the clone database, the CFG cycle analysis
    feeding the loop heuristics) then run over dense
    arrays with no further allocation, and the arrays are plain
    immutable data that domains can share without copying.

    The digest has the same identity-excluding contract as
    {!Hash.routine_body_hash} (and is what that function now computes):
    the routine's own name, module, origin, linkage and call-site ids
    are excluded; params, attributes, block structure, instructions
    (including callee and global names) and terminators are
    included.  Two bodies that differ only in identity hash alike; any
    body edit changes the hash. *)

open Types

(* Opcode tags, one per instruction row. *)
let op_const = 0   (* o1 = dst, o2 = consts index *)
let op_faddr = 1   (* o1 = dst, o2 = names index *)
let op_gaddr = 2   (* o1 = dst, o2 = names index *)
let op_unop = 3    (* o1 = dst, o2 = unop tag, o3 = src *)
let op_binop = 4   (* o1 = dst, o2 = binop tag, o3 = a, o4 = b *)
let op_move = 5    (* o1 = dst, o2 = src *)
let op_load = 6    (* o1 = dst, o2 = addr *)
let op_store = 7   (* o1 = addr, o2 = value *)
let op_call_direct = 8    (* o1 = dst or -1, o2 = names ix, o3 = args start, o4 = nargs *)
let op_call_indirect = 9  (* o1 = dst or -1, o2 = handle reg, o3 = args start, o4 = nargs *)

(* Terminator tags, one per block. *)
let term_jump = 0     (* a = target *)
let term_branch = 1   (* a = reg, b = then, c = else *)
let term_ret_none = 2
let term_ret_some = 3 (* a = reg *)

let binop_tag = function
  | Add -> 0 | Sub -> 1 | Mul -> 2 | Div -> 3 | Rem -> 4
  | And -> 5 | Or -> 6 | Xor -> 7 | Shl -> 8 | Shr -> 9
  | Eq -> 10 | Ne -> 11 | Lt -> 12 | Le -> 13 | Gt -> 14 | Ge -> 15

let unop_tag = function Neg -> 0 | Not -> 1

type t = {
  params : int array;
  attr_bits : int;          (** varargs/alloca/fp/no_inline/no_clone packed *)
  block_id : int array;     (** label of block [b] *)
  block_start : int array;  (** first instruction row of block [b] *)
  block_len : int array;    (** instruction rows of block [b] *)
  term_kind : int array;
  term_a : int array;
  term_b : int array;
  term_c : int array;
  opcode : int array;
  o1 : int array;
  o2 : int array;
  o3 : int array;
  o4 : int array;
  args : int array;         (** pooled call-argument registers *)
  consts : int64 array;     (** pooled [Const] payloads *)
  names : string array;     (** interned names, first-occurrence order *)
  call_sites : int array;   (** site id per call row, in row order *)
  hash : string;            (** identity-excluding digest (hex) *)
}

let n_blocks t = Array.length t.block_id
let body_hash t = t.hash

let attr_bits (a : attrs) =
  (if a.a_varargs then 1 else 0)
  lor (if a.a_alloca then 2 else 0)
  lor (match a.a_fp_model with Strict -> 0 | Relaxed -> 4)
  lor (if a.a_no_inline then 8 else 0)
  lor (if a.a_no_clone then 16 else 0)

(* ------------------------------------------------------------------ *)
(* Building.                                                           *)

let build (r : routine) : t =
  let nb = List.length r.r_blocks in
  let rows =
    List.fold_left (fun acc b -> acc + List.length b.b_instrs) 0 r.r_blocks
  in
  let block_id = Array.make nb 0 in
  let block_start = Array.make nb 0 in
  let block_len = Array.make nb 0 in
  let term_kind = Array.make nb 0 in
  let term_a = Array.make nb (-1) in
  let term_b = Array.make nb (-1) in
  let term_c = Array.make nb (-1) in
  let opcode = Array.make rows 0 in
  let o1 = Array.make rows (-1) in
  let o2 = Array.make rows (-1) in
  let o3 = Array.make rows (-1) in
  let o4 = Array.make rows (-1) in
  (* Pools grow append-only; sized generously enough to avoid most
     resizes without a pre-scan. *)
  let args = ref (Array.make (max 4 rows) 0) in
  let n_args = ref 0 in
  let consts = ref (Array.make (max 4 (rows / 2)) 0L) in
  let n_consts = ref 0 in
  let names = ref [] in            (* reversed intern list *)
  let n_names = ref 0 in
  let name_ids : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let sites = ref [] in            (* reversed call-site list *)
  let n_sites = ref 0 in
  let intern s =
    match Hashtbl.find_opt name_ids s with
    | Some i -> i
    | None ->
      let i = !n_names in
      Hashtbl.add name_ids s i;
      names := s :: !names;
      incr n_names;
      i
  in
  let push_arg v =
    if !n_args >= Array.length !args then begin
      let bigger = Array.make (2 * Array.length !args) 0 in
      Array.blit !args 0 bigger 0 !n_args;
      args := bigger
    end;
    !args.(!n_args) <- v;
    incr n_args
  in
  let push_const k =
    if !n_consts >= Array.length !consts then begin
      let bigger = Array.make (2 * Array.length !consts) 0L in
      Array.blit !consts 0 bigger 0 !n_consts;
      consts := bigger
    end;
    !consts.(!n_consts) <- k;
    incr n_consts;
    !n_consts - 1
  in
  let row = ref 0 in
  List.iteri
    (fun bi (b : block) ->
      block_id.(bi) <- b.b_id;
      block_start.(bi) <- !row;
      List.iter
        (fun i ->
          let k = !row in
          (match i with
          | Const (d, c) ->
            opcode.(k) <- op_const;
            o1.(k) <- d;
            o2.(k) <- push_const c
          | Faddr (d, n) ->
            opcode.(k) <- op_faddr;
            o1.(k) <- d;
            o2.(k) <- intern n
          | Gaddr (d, n) ->
            opcode.(k) <- op_gaddr;
            o1.(k) <- d;
            o2.(k) <- intern n
          | Unop (d, op, a) ->
            opcode.(k) <- op_unop;
            o1.(k) <- d;
            o2.(k) <- unop_tag op;
            o3.(k) <- a
          | Binop (d, op, a, b') ->
            opcode.(k) <- op_binop;
            o1.(k) <- d;
            o2.(k) <- binop_tag op;
            o3.(k) <- a;
            o4.(k) <- b'
          | Move (d, s) ->
            opcode.(k) <- op_move;
            o1.(k) <- d;
            o2.(k) <- s
          | Load (d, a) ->
            opcode.(k) <- op_load;
            o1.(k) <- d;
            o2.(k) <- a
          | Store (a, v) ->
            opcode.(k) <- op_store;
            o1.(k) <- a;
            o2.(k) <- v
          | Call { c_dst; c_callee; c_args; c_site } ->
            let start = !n_args in
            List.iter push_arg c_args;
            o1.(k) <- (match c_dst with Some d -> d | None -> -1);
            o3.(k) <- start;
            o4.(k) <- !n_args - start;
            (match c_callee with
            | Direct n ->
              opcode.(k) <- op_call_direct;
              o2.(k) <- intern n
            | Indirect h ->
              opcode.(k) <- op_call_indirect;
              o2.(k) <- h);
            sites := c_site :: !sites;
            incr n_sites);
          incr row)
        b.b_instrs;
      block_len.(bi) <- !row - block_start.(bi);
      match b.b_term with
      | Jump l ->
        term_kind.(bi) <- term_jump;
        term_a.(bi) <- l
      | Branch (c, l1, l2) ->
        term_kind.(bi) <- term_branch;
        term_a.(bi) <- c;
        term_b.(bi) <- l1;
        term_c.(bi) <- l2
      | Return None -> term_kind.(bi) <- term_ret_none
      | Return (Some v) ->
        term_kind.(bi) <- term_ret_some;
        term_a.(bi) <- v)
    r.r_blocks;
  let args = Array.sub !args 0 !n_args in
  let consts = Array.sub !consts 0 !n_consts in
  let names = Array.of_list (List.rev !names) in
  let call_sites = Array.of_list (List.rev !sites) in
  let params = Array.of_list r.r_params in
  let attr_bits = attr_bits r.r_attrs in
  (* The digest: a fixed-width binary serialization of everything
     above except [call_sites].  Name *indices* appear in the rows and
     the interned table contents are appended, so equal bodies (equal
     first-occurrence interning) digest alike and any referenced-name
     change reaches the digest through the table. *)
  let buf = Buffer.create (64 + (rows * 24)) in
  let add_i n = Buffer.add_int64_le buf (Int64.of_int n) in
  add_i (Array.length params);
  Array.iter add_i params;
  add_i attr_bits;
  add_i nb;
  for bi = 0 to nb - 1 do
    add_i block_id.(bi);
    add_i block_len.(bi);
    add_i term_kind.(bi);
    add_i term_a.(bi);
    add_i term_b.(bi);
    add_i term_c.(bi)
  done;
  add_i rows;
  for k = 0 to rows - 1 do
    add_i opcode.(k);
    add_i o1.(k);
    add_i o2.(k);
    add_i o3.(k);
    add_i o4.(k)
  done;
  add_i (Array.length args);
  Array.iter add_i args;
  add_i (Array.length consts);
  Array.iter (Buffer.add_int64_le buf) consts;
  add_i (Array.length names);
  Array.iter
    (fun s ->
      add_i (String.length s);
      Buffer.add_string buf s)
    names;
  let hash = Digest.to_hex (Digest.string (Buffer.contents buf)) in
  { params; attr_bits; block_id; block_start; block_len; term_kind; term_a;
    term_b; term_c; opcode; o1; o2; o3; o4; args; consts; names; call_sites;
    hash }

(* ------------------------------------------------------------------ *)
(* One view per routine version.                                       *)

(* Routines are immutable records and every transform builds a fresh
   one, so physical identity *is* the version: the memo makes repeated
   queries against an unchanged body (the inliner re-scoring a callee,
   the cache re-keying it per pass) reuse one build.  Keys are held
   weakly — an entry dies with its routine version — and the table is
   shared across domains behind a mutex; racing builders of the same
   version insert identical views, either wins. *)
module Memo = Ephemeron.K1.Make (struct
  type nonrec t = routine

  let equal = ( == )
  let hash = Hashtbl.hash
end)

let memo : t Memo.t = Memo.create 1024
let memo_lock = Mutex.create ()

let of_routine (r : routine) : t =
  Mutex.lock memo_lock;
  let hit = Memo.find_opt memo r in
  Mutex.unlock memo_lock;
  match hit with
  | Some fl -> fl
  | None ->
    let fl = build r in
    Mutex.lock memo_lock;
    Memo.replace memo r fl;
    Mutex.unlock memo_lock;
    fl

(** Convenience: flatten and digest in one call. *)
let routine_hash (r : routine) : string = (of_routine r).hash

(* ------------------------------------------------------------------ *)
(* CFG queries over the flat arrays.                                   *)

(** Successor *block indices* of block [bi] (targets that name no
    block — impossible in validated IR — are skipped). *)
let successors_of (t : t) (idx_of_label : (int, int) Hashtbl.t) bi =
  let tgt l =
    match Hashtbl.find_opt idx_of_label l with Some i -> [ i ] | None -> []
  in
  match t.term_kind.(bi) with
  | k when k = term_jump -> tgt t.term_a.(bi)
  | k when k = term_branch -> tgt t.term_b.(bi) @ tgt t.term_c.(bi)
  | _ -> []

(** Labels of blocks on a CFG cycle (including self-loops): Tarjan
    over the flat terminator arrays, no intermediate maps. *)
let cycles (t : t) : Int_set.t =
  let nb = n_blocks t in
  let idx_of_label = Hashtbl.create (2 * nb) in
  Array.iteri (fun i l -> Hashtbl.replace idx_of_label l i) t.block_id;
  let index = Array.make nb (-1) in
  let lowlink = Array.make nb 0 in
  let on_stack = Array.make nb false in
  let stack = ref [] in
  let counter = ref 0 in
  let result = ref Int_set.empty in
  let rec strongconnect v =
    index.(v) <- !counter;
    lowlink.(v) <- !counter;
    incr counter;
    stack := v :: !stack;
    on_stack.(v) <- true;
    List.iter
      (fun w ->
        if index.(w) < 0 then begin
          strongconnect w;
          lowlink.(v) <- min lowlink.(v) lowlink.(w)
        end
        else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w))
      (successors_of t idx_of_label v);
    if lowlink.(v) = index.(v) then begin
      let rec pop acc =
        match !stack with
        | [] -> acc
        | w :: rest ->
          stack := rest;
          on_stack.(w) <- false;
          if w = v then w :: acc else pop (w :: acc)
      in
      let comp = pop [] in
      let cyclic =
        match comp with
        | [ single ] ->
          List.mem single (successors_of t idx_of_label single)
        | _ -> true
      in
      if cyclic then
        result :=
          List.fold_left
            (fun s i -> Int_set.add t.block_id.(i) s)
            !result comp
    end
  in
  for v = 0 to nb - 1 do
    if index.(v) < 0 then strongconnect v
  done;
  !result
