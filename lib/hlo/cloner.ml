(** The cloning pass (Figure 3 of the paper).

    Setup computes a parameter-usage descriptor P(R) per routine and a
    calling-context descriptor S(E) per call edge.  For every edge
    whose intersection is nonempty, the cloner greedily sweeps the
    callee's other incoming edges into a *clone group* — the set of
    sites that can safely share one clone.  Groups are ranked by
    estimated run-time benefit and materialized until the pass's budget
    allotment runs out; a group that provably leaves its clonee
    unreachable is costed at zero ("anticipated deletion").  Created
    clones are remembered in the clone database so a later pass that
    rediscovers the same specification reuses the clone instead of
    paying for it again. *)

module U = Ucode.Types
module CG = Ucode.Callgraph
module T = Telemetry.Collector
module TE = Telemetry.Event

type group = {
  g_callee : string;
  g_spec : Clone_spec.t;
  g_sites : CG.edge list;   (** all call sites folded into the group *)
  g_benefit : float;
  g_frequency : float;      (** estimated dynamic calls captured *)
  g_covers_all : bool;      (** group contains every incoming edge *)
}

(* ------------------------------------------------------------------ *)
(* Legality.                                                           *)

let clonable_routine (st : State.t) (r : U.routine) =
  (not r.U.r_attrs.U.a_no_clone)
  && (not r.U.r_attrs.U.a_varargs)
  && r.U.r_name <> st.State.program.U.p_main

let clonable_edge (st : State.t) (caller : U.routine) (callee : U.routine)
    (e : CG.edge) =
  List.length e.CG.e_args = List.length callee.U.r_params
  && (st.State.config.Config.cross_module
     || caller.U.r_module = callee.U.r_module)

(* ------------------------------------------------------------------ *)
(* Group construction.                                                 *)

(** Names whose handle is taken somewhere in [p].  Such a routine can
    be reached by indirect calls and must never be deleted (nor counted
    as dying). *)
let address_taken_names (p : U.program) : U.String_set.t =
  List.fold_left
    (fun acc (r : U.routine) ->
      List.fold_left
        (fun acc (b : U.block) ->
          List.fold_left
            (fun acc -> function
              | U.Faddr (_, n) -> U.String_set.add n acc
              | _ -> acc)
            acc b.U.b_instrs)
        acc r.U.r_blocks)
    U.String_set.empty p.U.p_routines

let build_groups (st : State.t) : group list =
  let p = st.State.program in
  let config = st.State.config in
  let profile = st.State.profile in
  let cg = CG.build p in
  let routine_exn = Ucode.Index.find_exn cg.CG.cg_index in
  let address_taken = address_taken_names p in
  (* Lazy per-routine summaries. *)
  let usage_cache = Hashtbl.create 32 in
  let usage_of (r : U.routine) =
    match Hashtbl.find_opt usage_cache r.U.r_name with
    | Some u -> u
    | None ->
      let u = Summaries.param_usage ~config ~profile r in
      Hashtbl.replace usage_cache r.U.r_name u;
      u
  in
  let context_cache = Hashtbl.create 32 in
  let contexts_of (r : U.routine) =
    match Hashtbl.find_opt context_cache r.U.r_name with
    | Some c -> c
    | None ->
      let c = Summaries.edge_contexts r in
      Hashtbl.replace context_cache r.U.r_name c;
      c
  in
  let context_of (e : CG.edge) =
    let caller = routine_exn e.CG.e_caller in
    U.Int_map.find_opt e.CG.e_site (contexts_of caller)
  in
  let consumed = Hashtbl.create 64 in (* site ids already grouped this pass *)
  let groups = ref [] in
  List.iter
    (fun (e : CG.edge) ->
      if not (Hashtbl.mem consumed e.CG.e_site) then
        match e.CG.e_callee with
        | U.Indirect _ -> ()
        | U.Direct callee_name -> (
          match CG.routine cg callee_name with
          | None -> ()  (* builtin/external *)
          | Some callee ->
            let caller = routine_exn e.CG.e_caller in
            if clonable_routine st callee && clonable_edge st caller callee e
            then
              match context_of e with
              | None -> ()
              | Some context -> (
                let usage = usage_of callee in
                match Clone_spec.intersect ~callee ~context ~usage with
                | None -> ()
                | Some spec ->
                  (* Greedily absorb every compatible incoming edge. *)
                  let incoming = CG.incoming cg callee_name in
                  let members =
                    List.filter
                      (fun (e' : CG.edge) ->
                        (not (Hashtbl.mem consumed e'.CG.e_site))
                        && (e'.CG.e_site = e.CG.e_site
                           ||
                           let caller' = routine_exn e'.CG.e_caller in
                           clonable_edge st caller' callee e'
                           &&
                           match context_of e' with
                           | Some ctx' -> Clone_spec.matches ctx' spec
                           | None -> false))
                      incoming
                  in
                  List.iter
                    (fun (e' : CG.edge) ->
                      Hashtbl.replace consumed e'.CG.e_site ())
                    members;
                  let freq =
                    List.fold_left
                      (fun acc (e' : CG.edge) ->
                        let caller' = routine_exn e'.CG.e_caller in
                        acc
                        +. Summaries.site_frequency ~config ~profile caller'
                             ~site:e'.CG.e_site ~label:e'.CG.e_block)
                      0.0 members
                  in
                  let benefit =
                    freq *. Clone_spec.value ~config ~usage spec
                  in
                  let covers_all =
                    List.length members = List.length incoming
                    && not (U.String_set.mem callee_name address_taken)
                  in
                  if T.enabled () then begin
                    T.count "hlo.clone.groups" 1;
                    T.count "hlo.clone.group_sites" (List.length members)
                  end;
                  groups :=
                    { g_callee = callee_name; g_spec = spec; g_sites = members;
                      g_benefit = benefit; g_frequency = freq;
                      g_covers_all = covers_all }
                    :: !groups)))
    cg.CG.cg_edges;
  List.rev !groups

(* ------------------------------------------------------------------ *)
(* Materialization.                                                    *)

(** Rewrite every call instruction listed in [sites] (by site id) to
    invoke the clone. *)
let retarget_sites (st : State.t) ~(spec : Clone_spec.t) ~(clone_name : string)
    (sites : CG.edge list) : unit =
  let by_caller = Hashtbl.create 8 in
  List.iter
    (fun (e : CG.edge) ->
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt by_caller e.CG.e_caller)
      in
      Hashtbl.replace by_caller e.CG.e_caller (e.CG.e_site :: existing))
    sites;
  Hashtbl.iter
    (fun caller_name site_ids ->
      let caller = U.find_routine_exn st.State.program caller_name in
      let rewrite_instr = function
        | U.Call c when List.mem c.U.c_site site_ids ->
          U.Call (Clone_spec.retarget_call spec ~clone_name c)
        | i -> i
      in
      let blocks =
        List.map
          (fun (b : U.block) ->
            { b with U.b_instrs = List.map rewrite_instr b.U.b_instrs })
          caller.U.r_blocks
      in
      st.State.program <-
        U.update_routine st.State.program { caller with U.r_blocks = blocks })
    by_caller

(** The clone database entry for [key], if its clone still exists.  An
    entry outlives its clone when inlining consumes every call to the
    clone and a prune stage then deletes it; a later pass rediscovering
    the same specification must materialize a fresh clone rather than
    retarget sites to the deleted one. *)
let live_entry (st : State.t) key =
  match Hashtbl.find_opt st.State.clone_db key with
  | Some e when U.find_routine st.State.program e.State.ce_name <> None ->
    Some e
  | _ -> None

let apply_group (st : State.t) ~(pass : int) (g : group) : unit =
  let p = st.State.program in
  let callee = U.find_routine_exn p g.g_callee in
  let key = Clone_spec.key g.g_spec in
  (* Fraction of the clonee's executions this group captures, for
     profile bookkeeping. *)
  let factor =
    let entry = Ucode.Profile.entry_count st.State.profile callee in
    if entry <= 0.0 then 0.0 else Float.min 1.0 (g.g_frequency /. entry)
  in
  let entry =
    match live_entry st key with
    | Some entry ->
      T.count "hlo.clone.db_hits" 1;
      entry
    | None ->
      let clone_name = State.fresh_clone_name st g.g_callee in
      (* Materialize through the cross-request template cache: a
         long-lived server re-cloning the same callee under the same
         spec pays one body copy, then a renaming walk per request. *)
      let clone, site_map =
        Clone_db.make_clone ~callee ~clone_name
          ~fresh_site:(fun () -> State.fresh_site st)
          g.g_spec
      in
      st.State.program <- U.add_routine st.State.program clone;
      st.State.report.Report.clones_created <-
        st.State.report.Report.clones_created + 1;
      if T.enabled () then begin
        T.count "hlo.clone.created" 1;
        T.decision ~kind:TE.Clone_create ~verdict:TE.Accepted
          ~context:g.g_callee ~score:g.g_benefit ~pass clone_name
      end;
      let entry = { State.ce_name = clone_name; ce_site_map = site_map } in
      Hashtbl.replace st.State.clone_db key entry;
      entry
  in
  if factor > 0.0 then
    st.State.profile <-
      Ucode.Profile.split_for_clone st.State.profile ~original:g.g_callee
        ~clone_name:entry.State.ce_name ~site_map:entry.State.ce_site_map
        ~factor callee;
  (* Retarget sites one by one, respecting the operation cap. *)
  let rec take_sites = function
    | [] -> []
    | (e : CG.edge) :: rest when State.running st ->
      State.note_operation st
        (Report.Op_clone_replace
           { caller = e.CG.e_caller; clone = entry.State.ce_name;
             site = e.CG.e_site });
      if T.enabled () then
        T.decision ~kind:TE.Clone_replace ~verdict:TE.Accepted
          ~context:e.CG.e_caller ~site:e.CG.e_site ~score:g.g_benefit ~pass
          entry.State.ce_name;
      e :: take_sites rest
    | _ :: _ -> []
  in
  let sites = take_sites g.g_sites in
  retarget_sites st ~spec:g.g_spec ~clone_name:entry.State.ce_name sites

(** Run one cloning pass under the stage-[pass] budget allotment.
    Returns the names of routines created or modified (for selective
    re-optimization). *)
let run_pass (st : State.t) ~(pass : int) : string list =
  if (not st.State.config.Config.enable_cloning) || not (State.running st) then
    []
  else begin
    let groups = build_groups st in
    let ranked =
      List.stable_sort (fun a b -> compare b.g_benefit a.g_benefit) groups
    in
    let touched = ref U.String_set.empty in
    List.iter
      (fun g ->
        if State.running st then begin
          let cost =
            if live_entry st (Clone_spec.key g.g_spec) <> None then 0.0
            else if
              (* Anticipated deletion: the clonee will become
                 unreachable, so the program does not actually grow. *)
              g.g_covers_all
              && (match U.find_routine st.State.program g.g_callee with
                 | Some r -> (
                   r.U.r_linkage = U.Module_local
                   || match r.U.r_origin with
                      | U.Clone_of _ -> true
                      | U.From_source -> false)
                 | None -> false)
            then 0.0
            else
              Ucode.Size.cost_of_size
                (Summary_cache.size
                   (U.find_routine_exn st.State.program g.g_callee))
          in
          if Budget.can_afford st.State.budget ~pass cost then begin
            Budget.charge st.State.budget cost;
            apply_group st ~pass g;
            touched := U.String_set.add g.g_callee !touched;
            (match Hashtbl.find_opt st.State.clone_db (Clone_spec.key g.g_spec) with
            | Some entry ->
              touched := U.String_set.add entry.State.ce_name !touched
            | None -> ());
            List.iter
              (fun (e : CG.edge) ->
                touched := U.String_set.add e.CG.e_caller !touched)
              g.g_sites
          end
          else if T.enabled () then begin
            T.count "hlo.clone.reject.budget" 1;
            T.decision ~kind:TE.Clone_create
              ~verdict:(TE.Rejected "budget") ~score:g.g_benefit ~pass
              g.g_callee
          end
        end)
      ranked;
    U.String_set.elements !touched
  end
