(** Per-routine and per-edge summaries feeding the heuristics.

    - The *parameter-usage descriptor* P(R) says, for each formal of R,
      how much R would benefit from knowing that formal's value: each
      interesting use is weighed by the importance of the block it sits
      in (profile count relative to the routine entry when PBO data is
      present, a loop heuristic otherwise).  Formals reaching the
      function position of an indirect call get special emphasis, as in
      the paper.
    - The *calling-context descriptor* S(E) says what the caller knows
      about the actuals at edge E; our implementation, like the
      paper's, considers caller-supplied constants (including constant
      routine handles).
    - Frequency estimates for call sites and blocks, shared by the
      cloner's and inliner's benefit calculations.

    Body-only facts (the cycle sets behind the loop heuristic) come
    from [Summary_cache], keyed by routine-body hash, so they are
    computed once per distinct body rather than once per query.
    Routine sizes are not summaries here: the inliner walks every
    routine once per pass ([Ucode.Size.routine_size]) into a table of
    its own, which its screen, its benefit and its cascaded estimates
    all read (only a routine a region split changed is walked again),
    and the cloner walks a callee when it prices a group.  A walk costs
    less than the flat build and digest a cache lookup needs. *)

module U = Ucode.Types
module CP = Opt.Constprop

(* ------------------------------------------------------------------ *)
(* Loop heuristic: blocks that sit on a CFG cycle.                     *)

(** Labels of blocks that are part of some cycle of [r]'s CFG
    (including self-loops).  Used as a stand-in for execution frequency
    when no profile is available.  Memoized by body hash. *)
let blocks_in_cycles (r : U.routine) : U.Int_set.t = Summary_cache.cycles r

(* ------------------------------------------------------------------ *)
(* Frequencies.                                                        *)

(** Weight used for in-loop blocks when no profile is available. *)
let loop_weight = 8.0

(** Execution weight of a block *relative to its routine's entry*.
    1.0 means "as often as the routine is entered". *)
let block_relative_weight ~(config : Config.t) ~(profile : Ucode.Profile.t)
    (r : U.routine) (label : U.label) : float =
  if config.Config.use_profile && not (Ucode.Profile.is_empty profile) then begin
    let count = Ucode.Profile.block_counts profile r.U.r_name in
    let entry = count (U.entry_block r).U.b_id in
    if entry <= 0.0 then 0.0 else count label /. entry
  end
  else if U.Int_set.mem label (blocks_in_cycles r) then loop_weight
  else 1.0

(** Absolute frequency estimate of a call site sitting in block
    [label] of [r].  With profile data this is the measured site count;
    without, the loop heuristic. *)
let site_frequency ~(config : Config.t) ~(profile : Ucode.Profile.t)
    (r : U.routine) ~(site : U.site) ~(label : U.label) : float =
  if config.Config.use_profile && not (Ucode.Profile.is_empty profile) then
    Ucode.Profile.site_count profile site
  else if U.Int_set.mem label (blocks_in_cycles r) then loop_weight
  else 1.0

(* ------------------------------------------------------------------ *)
(* Calling-context descriptors S(E).                                   *)

type context_value = Cconst of int64 | Cfun of string | Cunknown

let context_value_of_lattice = function
  | CP.Const k -> Cconst k
  | CP.Fun f -> Cfun f
  | CP.Undef | CP.Nac -> Cunknown

(** Abstract argument values at every call site of [r]. *)
let edge_contexts (r : U.routine) : context_value list U.Int_map.t =
  U.Int_map.map (List.map context_value_of_lattice) (CP.values_at_calls r)

(* ------------------------------------------------------------------ *)
(* Parameter-usage descriptors P(R).                                   *)

type param_usage = {
  pu_weights : float array;  (** per formal: accumulated interest *)
  pu_indirect : bool array;
      (** per formal: reaches the function position of an indirect call *)
}

(** Interest weights per use kind.  Branch conditions rate high (a
    known value folds the branch and kills a whole region); indirect
    callees rate highest (they enable devirtualization, then inlining —
    the staged optimization of §3.1). *)
let weight_branch_use = 8.0
let weight_indirect_callee = 64.0
let weight_arith_use = 2.0
let weight_memory_use = 1.0
let weight_passthrough = 1.0

let param_usage ~(config : Config.t) ~(profile : Ucode.Profile.t)
    (r : U.routine) : param_usage =
  let n = List.length r.U.r_params in
  let weights = Array.make n 0.0 in
  let indirect = Array.make n false in
  let index_of_reg =
    let tbl = Hashtbl.create 8 in
    List.iteri (fun i p -> Hashtbl.replace tbl p i) r.U.r_params;
    fun reg -> Hashtbl.find_opt tbl reg
  in
  let bump reg w =
    match index_of_reg reg with
    | Some i -> weights.(i) <- weights.(i) +. w
    | None -> ()
  in
  (* One weight source per routine, resolved up front: either the
     profile or a single cycle-set lookup — not a per-block query. *)
  let relative_weight : U.label -> float =
    if config.Config.use_profile && not (Ucode.Profile.is_empty profile) then begin
      let count = Ucode.Profile.block_counts profile r.U.r_name in
      let entry = count (U.entry_block r).U.b_id in
      fun label -> if entry <= 0.0 then 0.0 else count label /. entry
    end
    else begin
      let cycles = blocks_in_cycles r in
      fun label -> if U.Int_set.mem label cycles then loop_weight else 1.0
    end
  in
  List.iter
    (fun (b : U.block) ->
      let rel = relative_weight b.U.b_id in
      List.iter
        (fun i ->
          match i with
          | U.Call { c_callee = U.Indirect h; c_args; _ } ->
            (match index_of_reg h with
            | Some idx ->
              indirect.(idx) <- true;
              weights.(idx) <- weights.(idx) +. (weight_indirect_callee *. rel)
            | None -> ());
            List.iter (fun a -> bump a (weight_passthrough *. rel)) c_args
          | U.Call { c_args; _ } ->
            List.iter (fun a -> bump a (weight_passthrough *. rel)) c_args
          | U.Binop (_, _, a, b_) ->
            bump a (weight_arith_use *. rel);
            bump b_ (weight_arith_use *. rel)
          | U.Unop (_, _, a) -> bump a (weight_arith_use *. rel)
          | U.Load (_, a) -> bump a (weight_memory_use *. rel)
          | U.Store (a, v) ->
            bump a (weight_memory_use *. rel);
            bump v (weight_memory_use *. rel)
          | U.Move (_, a) -> bump a (weight_passthrough *. rel)
          | U.Const _ | U.Faddr _ | U.Gaddr _ -> ())
        b.U.b_instrs;
      List.iter
        (fun u -> bump u (weight_branch_use *. rel))
        (U.term_uses b.U.b_term))
    r.U.r_blocks;
  { pu_weights = weights; pu_indirect = indirect }
