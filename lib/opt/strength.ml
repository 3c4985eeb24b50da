(** Strength reduction: multiplies by a power-of-two constant become
    shifts.

    The target machine retires a shift in one cycle but pays extra
    latency for the multiplier (as the PA8000 did, where integer
    multiplies took the FP unit), so [x * 8] is strictly cheaper as
    [x << 3].  The rewrite is exact for every input: two's-complement
    multiplication and left shift wrap identically.

    The pass tracks constants block-locally (a global view is not
    needed — constants feeding multiplies are materialized in the same
    block by the front end and by constant propagation) and rewrites

    {v  c = const 2^k              c = const 2^k   (dropped later by DCE)
       d = mul a, c          =>    s = const k
                                   d = shl a, s   v} *)

module U = Ucode.Types

(** [log2 k] when [k] is a positive power of two. *)
let log2_of_power (k : int64) : int option =
  if Int64.compare k 1L < 0 then None
  else if Int64.logand k (Int64.sub k 1L) <> 0L then None
  else begin
    let rec go n v = if Int64.equal v 1L then n else go (n + 1) (Int64.shift_right_logical v 1) in
    Some (go 0 k)
  end

let reduce (r : U.routine) : U.routine * bool =
  let changed = ref false in
  let next_reg = ref r.U.r_next_reg in
  let fresh () =
    let v = !next_reg in
    incr next_reg;
    v
  in
  let rewrite_block (b : U.block) =
    let consts : (U.reg, int64) Hashtbl.t = Hashtbl.create 16 in
    let known reg =
      match Hashtbl.find_opt consts reg with
      | Some k -> log2_of_power k
      | None -> None
    in
    let rewrite i =
      let replacement =
        match i with
        | U.Binop (d, U.Mul, a, b_) -> (
          match (known b_, known a) with
          | Some sh, _ when sh > 0 ->
            let s = fresh () in
            Some [ U.Const (s, Int64.of_int sh); U.Binop (d, U.Shl, a, s) ]
          | _, Some sh when sh > 0 ->
            let s = fresh () in
            Some [ U.Const (s, Int64.of_int sh); U.Binop (d, U.Shl, b_, s) ]
          | _ -> None)
        | _ -> None
      in
      let out =
        match replacement with
        | Some instrs ->
          changed := true;
          instrs
        | None -> [ i ]
      in
      (* Track constants; any other def kills previous knowledge. *)
      List.iter
        (fun i' ->
          match i' with
          | U.Const (d, k) -> Hashtbl.replace consts d k
          | _ -> (
            match U.instr_def i' with
            | Some d -> Hashtbl.remove consts d
            | None -> ()))
        out;
      out
    in
    { b with U.b_instrs = List.concat_map rewrite b.U.b_instrs }
  in
  let blocks = List.map rewrite_block r.U.r_blocks in
  if !changed then ({ r with U.r_blocks = blocks; U.r_next_reg = !next_reg }, true)
  else (r, false)

(* A routine without a multiply, or whose multiplies all stay, comes
   back as it went in. *)
let run (r : U.routine) : U.routine * bool =
  let is_mul = function U.Binop (_, U.Mul, _, _) -> true | _ -> false in
  if List.exists (fun (b : U.block) -> List.exists is_mul b.U.b_instrs) r.U.r_blocks
  then reduce r
  else (r, false)
