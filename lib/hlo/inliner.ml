(** The inlining pass (Figure 4 of the paper).

    Every call edge is screened for legal, technical, pragmatic and
    user-imposed restrictions; viable sites get a run-time figure of
    merit (profile frequency when available, a loop heuristic
    otherwise, with a penalty for sites colder than their caller's
    entry — inlining into a non-critical path risks pushing spills onto
    hot paths).  Sites are then accepted greedily under the pass's
    budget allotment, with *cascaded costs*: accepted inlines are kept
    in a schedule ordered bottom-up over the call graph, so the cost of
    inlining B into A reflects whatever has already been scheduled into
    B — and when the schedule is executed, B's body really does contain
    those earlier inlines. *)

module U = Ucode.Types
module CG = Ucode.Callgraph
module T = Telemetry.Collector
module TE = Telemetry.Event

type candidate = {
  i_caller : string;
  i_callee : string;
  i_site : U.site;
  i_block : U.label;
  i_benefit : float;
  i_callee_size : int;
}

(* ------------------------------------------------------------------ *)
(* Legality screening.                                                 *)

type rejection =
  | Not_a_routine        (** external/builtin callee *)
  | Indirect_site
  | Arity_mismatch
  | Callee_varargs
  | Callee_alloca
  | Fp_model_mismatch
  | User_no_inline
  | Crosses_module

let rejection_name = function
  | Not_a_routine -> "not_a_routine"
  | Indirect_site -> "indirect_site"
  | Arity_mismatch -> "arity_mismatch"
  | Callee_varargs -> "callee_varargs"
  | Callee_alloca -> "callee_alloca"
  | Fp_model_mismatch -> "fp_model_mismatch"
  | User_no_inline -> "user_no_inline"
  | Crosses_module -> "crosses_module"

(* [cg] is the call graph of the program being screened. *)
let screen (st : State.t) (cg : CG.t) (e : CG.edge) :
    (U.routine * U.routine, rejection) result =
  match e.CG.e_callee with
  | U.Indirect _ -> Error Indirect_site
  | U.Direct name -> (
    match CG.routine cg name with
    | None -> Error Not_a_routine
    | Some callee ->
      let caller = Ucode.Index.find_exn cg.CG.cg_index e.CG.e_caller in
      if callee.U.r_attrs.U.a_no_inline then Error User_no_inline
      else if callee.U.r_attrs.U.a_varargs then Error Callee_varargs
      else if callee.U.r_attrs.U.a_alloca then Error Callee_alloca
      else if callee.U.r_attrs.U.a_fp_model <> caller.U.r_attrs.U.a_fp_model
      then Error Fp_model_mismatch
      else if List.length e.CG.e_args <> List.length callee.U.r_params then
        Error Arity_mismatch
      else if
        (not st.State.config.Config.cross_module)
        && caller.U.r_module <> callee.U.r_module
      then Error Crosses_module
      else Ok (caller, callee))

(* ------------------------------------------------------------------ *)
(* Benefit.                                                            *)

(* [callee_size] is the callee's instruction count: the pass's size
   table has it, so the benefit reads it instead of sizing the callee
   again on every screened edge. *)
let benefit_of (st : State.t) (caller : U.routine) ~(callee_size : int)
    ~(site : U.site) ~(block : U.label) : float =
  let config = st.State.config in
  let profile = st.State.profile in
  let freq =
    Summaries.site_frequency ~config ~profile caller ~site ~label:block
  in
  let cold_penalty =
    if
      config.Config.use_profile
      && (not (Ucode.Profile.is_empty profile))
      &&
      let count = Ucode.Profile.block_counts profile caller.U.r_name in
      count block < count (U.entry_block caller).U.b_id
    then config.Config.cold_site_penalty
    else 1.0
  in
  (* Small callees amortize their cost faster; bias slightly toward
     them so ties break sensibly. *)
  let size_bias = 1.0 +. (8.0 /. float_of_int (8 + callee_size)) in
  freq *. cold_penalty *. size_bias

(* ------------------------------------------------------------------ *)
(* Performing one inline.                                              *)

exception Site_vanished

(** Inline the body of the callee of call-site [site] into [caller_name].
    The caller's block containing the site is split in two; the copied
    body is wired between the halves, parameter-binding moves feed the
    renamed formals, and every [return] is rewritten into a move to the
    call's destination plus a jump to the join block.  A routine that
    falls off a [return] with no value yields 0, matching the
    interpreter's convention. *)
let perform_inline (st : State.t) ~(caller_name : string) ~(site : U.site) : unit =
  let caller = State.find_routine_exn st caller_name in
  (* Locate the call instruction. *)
  let found =
    List.find_map
      (fun (b : U.block) ->
        let rec split pre = function
          | [] -> None
          | U.Call c :: post when c.U.c_site = site ->
            Some (b, List.rev pre, c, post)
          | i :: rest -> split (i :: pre) rest
        in
        split [] b.U.b_instrs)
      caller.U.r_blocks
  in
  let b, pre, c, post =
    match found with Some x -> x | None -> raise Site_vanished
  in
  let callee_name =
    match c.U.c_callee with
    | U.Direct n -> n
    | U.Indirect _ -> raise Site_vanished
  in
  let callee = State.find_routine_exn st callee_name in
  let copy =
    Ucode.Rename.copy_body callee ~reg_base:caller.U.r_next_reg
      ~label_base:caller.U.r_next_label
      ~fresh_site:(fun () -> State.fresh_site st)
  in
  let join_label = copy.Ucode.Rename.cp_next_label in
  let binds =
    let args =
      if Chaos.enabled Chaos.Inline_swap_args then List.rev c.U.c_args
      else c.U.c_args
    in
    List.map2 (fun formal arg -> U.Move (formal, arg))
      copy.Ucode.Rename.cp_params args
  in
  let pre_block =
    { b with U.b_instrs = pre @ binds;
             U.b_term = U.Jump copy.Ucode.Rename.cp_entry }
  in
  let join_block =
    { U.b_id = join_label; U.b_instrs = post; U.b_term = b.U.b_term }
  in
  let rewire_return (blk : U.block) =
    match blk.U.b_term with
    | U.Return v ->
      let extra =
        match (c.U.c_dst, v) with
        | Some d, Some _ when Chaos.enabled Chaos.Inline_lost_retval ->
          [ U.Const (d, 0L) ]
        | Some d, Some value -> [ U.Move (d, value) ]
        | Some d, None -> [ U.Const (d, 0L) ]
        | None, _ -> []
      in
      { blk with U.b_instrs = blk.U.b_instrs @ extra; U.b_term = U.Jump join_label }
    | _ -> blk
  in
  let copied = List.map rewire_return copy.Ucode.Rename.cp_blocks in
  let blocks =
    List.map (fun (blk : U.block) -> if blk.U.b_id = b.U.b_id then pre_block else blk)
      caller.U.r_blocks
    @ copied @ [ join_block ]
  in
  let caller' =
    { caller with U.r_blocks = blocks;
      U.r_next_reg = copy.Ucode.Rename.cp_next_reg;
      U.r_next_label = join_label + 1 }
  in
  State.update_routine st caller';
  (* Profile transfer: the copied blocks inherit the fraction of the
     callee's counts attributable to this site; the join block runs as
     often as the call fired. *)
  let profile = st.State.profile in
  if not (Ucode.Profile.is_empty profile) then begin
    let site_count = Ucode.Profile.site_count profile site in
    let entry = Ucode.Profile.entry_count profile callee in
    let factor = if entry <= 0.0 then 0.0 else Float.min 1.0 (site_count /. entry) in
    let profile =
      Ucode.Profile.transfer_copy profile ~from_routine:callee_name
        ~into_routine:caller_name ~block_map:copy.Ucode.Rename.cp_block_map
        ~site_map:copy.Ucode.Rename.cp_site_map ~factor
    in
    let profile =
      Ucode.Profile.add_block profile ~routine:caller_name ~block:join_label
        site_count
    in
    let profile =
      (* The callee now runs correspondingly less often — unless we
         just unrolled it into itself. *)
      if callee_name = caller_name || factor <= 0.0 then profile
      else Ucode.Profile.scale_routine profile callee (1.0 -. factor)
    in
    st.State.profile <- profile
  end

(* ------------------------------------------------------------------ *)
(* Pass driver.                                                        *)

(** Run one inlining pass under the stage-[pass] budget allotment.
    Returns the names of modified routines. *)
let run_pass (st : State.t) ~(pass : int) : string list =
  if (not st.State.config.Config.enable_inlining) || not (State.running st)
  then []
  else begin
    let p = st.State.program in
    let cg = CG.build ~edges_of:(State.call_edges st) p in
    (* Every routine's size, taken once: screening, ranking and the
       greedy loop's cascaded estimates all read it.  Only a split
       routine is sized again. *)
    let est_size = Hashtbl.create 64 in
    List.iter
      (fun (r : U.routine) ->
        Hashtbl.replace est_size r.U.r_name (Ucode.Size.routine_size r))
      p.U.p_routines;
    State.with_edits st @@ fun () ->
    (* Screen and rank. *)
    (* Journal one entry per screened edge; telemetry-off costs one
       branch per edge. *)
    let journal_screen_reject (e : CG.edge) r =
      let callee =
        match e.CG.e_callee with U.Direct n -> n | U.Indirect _ -> "<indirect>"
      in
      let reason = rejection_name r in
      T.count "hlo.inline.screened" 1;
      T.count ("hlo.inline.reject." ^ reason) 1;
      T.decision ~kind:TE.Inline ~verdict:(TE.Rejected reason)
        ~context:e.CG.e_caller ~site:e.CG.e_site ~pass callee
    in
    let candidates =
      List.filter_map
        (fun (e : CG.edge) ->
          match screen st cg e with
          | Error r ->
            if T.enabled () then journal_screen_reject e r;
            None
          | Ok (caller, callee) ->
            T.count "hlo.inline.screened" 1;
            let callee_size = Hashtbl.find est_size callee.U.r_name in
            Some
              { i_caller = caller.U.r_name; i_callee = callee.U.r_name;
                i_site = e.CG.e_site; i_block = e.CG.e_block;
                i_benefit =
                  benefit_of st caller ~callee_size ~site:e.CG.e_site
                    ~block:e.CG.e_block;
                i_callee_size = callee_size })
        cg.CG.cg_edges
    in
    let rank cands =
      List.stable_sort
        (fun a b ->
          match compare b.i_benefit a.i_benefit with
          | 0 -> compare a.i_callee_size b.i_callee_size
          | n -> n)
        cands
    in
    let ranked = rank candidates in
    (* Greedy acceptance with cascaded size estimates. *)
    let whole_body_delta cand =
      let sz_caller = Hashtbl.find est_size cand.i_caller in
      let sz_callee = Hashtbl.find est_size cand.i_callee in
      Ucode.Size.cost_of_size (sz_caller + sz_callee)
      -. Ucode.Size.cost_of_size sz_caller
    in
    (* Region machinery: split an over-budget callee by
       outlining its cold regions (coldness against its hottest block),
       leaving a hot residue the greedy loop can re-price.  Memoized
       per callee — once split (or found unsplittable), never again
       this pass. *)
    let mode = st.State.config.Config.inline_mode in
    let outliner_config =
      { Outliner.cold_fraction = st.State.config.Config.region_cold_fraction;
        min_instructions = st.State.config.Config.outline_min_instructions;
        max_inputs = st.State.config.Config.outline_max_inputs }
    in
    let split_state : (string, bool) Hashtbl.t = Hashtbl.create 8 in
    let was_split name = Hashtbl.find_opt split_state name = Some true in
    let try_split (trigger : candidate) : bool =
      let name = trigger.i_callee in
      match Hashtbl.find_opt split_state name with
      | Some ok -> ok
      | None ->
        let cost_before =
          match State.find_routine st name with
          | Some r -> Ucode.Size.routine_cost r
          | None -> 0.0
        in
        let outlined =
          Outliner.outline_routine ~config:outliner_config st name
        in
        let n = List.length outlined in
        let ok = n > 0 in
        if ok then begin
          st.State.report.Report.residue_outlined <-
            st.State.report.Report.residue_outlined + n;
          (* The split shrinks Σ size² — hand the saving back so the
             residue can be afforded where the whole body could not.
             The residue precedes the routines outlined from it in
             program order, and the sum keeps that order. *)
          let residue = State.find_routine_exn st name in
          let cost_after =
            List.fold_left (fun acc r -> acc +. Ucode.Size.routine_cost r) 0.0
              (residue :: outlined)
          in
          Budget.credit st.State.budget (cost_before -. cost_after);
          Hashtbl.replace est_size name (Ucode.Size.routine_size residue);
          if T.enabled () then begin
            T.count "hlo.inline.outlined_then_inlined" 1;
            (* The whole-body inline is off the table; the journal
               records why before the residue is (re-)priced. *)
            T.decision ~kind:TE.Inline
              ~verdict:(TE.Rejected "outlined_then_inlined")
              ~context:trigger.i_caller ~site:trigger.i_site
              ~score:trigger.i_benefit ~pass name
          end
        end;
        Hashtbl.replace split_state name ok;
        ok
    in
    (* The callee may be a split's residue, so its size is taken afresh
       here rather than from the table. *)
    let rescore cand =
      match
        (State.find_routine st cand.i_caller, State.find_routine st cand.i_callee)
      with
      | Some caller, Some callee ->
        let callee_size = Ucode.Size.routine_size callee in
        { cand with
          i_benefit =
            benefit_of st caller ~callee_size ~site:cand.i_site
              ~block:cand.i_block;
          i_callee_size = callee_size }
      | _ -> cand
    in
    (* Region mode: an eager pre-pass — split every callee whose whole
       body fails this stage's budget check, then re-score and re-rank
       the surviving candidates against the residues. *)
    let ranked =
      if mode = Policy.Region then begin
        let any_split =
          List.fold_left
            (fun acc cand ->
              if Budget.can_afford st.State.budget ~pass (whole_body_delta cand)
              then acc
              else
                let ok = try_split cand in
                ok || acc)
            false ranked
        in
        if any_split then rank (List.map rescore ranked) else ranked
      end
      else ranked
    in
    let accepted =
      List.filter
        (fun cand ->
          let delta = whole_body_delta cand in
          if Budget.can_afford st.State.budget ~pass delta then begin
            let sz_caller = Hashtbl.find est_size cand.i_caller in
            let sz_callee = Hashtbl.find est_size cand.i_callee in
            Budget.charge st.State.budget delta;
            Hashtbl.replace est_size cand.i_caller (sz_caller + sz_callee);
            T.count "hlo.inline.scheduled" 1;
            true
          end
          else begin
            if T.enabled () then begin
              let reason =
                if was_split cand.i_callee then "residue_over_budget"
                else "budget"
              in
              T.count ("hlo.inline.reject." ^ reason) 1;
              T.decision ~kind:TE.Inline ~verdict:(TE.Rejected reason)
                ~context:cand.i_caller ~site:cand.i_site
                ~score:cand.i_benefit ~pass cand.i_callee
            end;
            false
          end)
        ranked
    in
    (* Execute the schedule bottom-up: all inlines *into* a routine
       happen before that routine is inlined anywhere else, so callers
       receive the cascaded bodies the cost model assumed. *)
    let order = CG.bottom_up_order cg in
    let position =
      List.mapi (fun i name -> (name, i)) order |> List.to_seq |> Hashtbl.of_seq
    in
    let pos name = Option.value ~default:max_int (Hashtbl.find_opt position name) in
    let schedule =
      List.stable_sort (fun a b -> compare (pos a.i_caller) (pos b.i_caller))
        accepted
    in
    let touched = ref U.String_set.empty in
    let journal cand verdict =
      T.decision ~kind:TE.Inline ~verdict ~context:cand.i_caller
        ~site:cand.i_site ~score:cand.i_benefit ~pass cand.i_callee
    in
    List.iter
      (fun cand ->
        if State.running st then begin
          match
            perform_inline st ~caller_name:cand.i_caller ~site:cand.i_site
          with
          | () ->
            State.note_operation st
              (Report.Op_inline
                 { caller = cand.i_caller; callee = cand.i_callee;
                   site = cand.i_site });
            if T.enabled () then begin
              T.count "hlo.inline.performed" 1;
              journal cand TE.Accepted
            end;
            touched := U.String_set.add cand.i_caller !touched
          | exception Site_vanished ->
            if T.enabled () then begin
              T.count "hlo.inline.reject.site_vanished" 1;
              journal cand (TE.Rejected "site_vanished")
            end
        end
        else if T.enabled () then begin
          T.count "hlo.inline.reject.operation_cap" 1;
          journal cand (TE.Rejected "operation_cap")
        end)
      schedule;
    U.String_set.elements !touched
  end
