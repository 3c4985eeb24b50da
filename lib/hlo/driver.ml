(** The multi-pass HLO driver (Figure 2 of the paper).

    HLO alternates cloning and inlining passes until the budget is
    exhausted, the pass limit is reached, or a pass performs no work.
    Between passes, routines touched by the transformations are re-run
    through the scalar optimizer — this is what makes the passes
    *staged*: constants cloned in during pass [k] propagate to call
    sites that only become interesting (inlinable, clonable, or
    devirtualizable) in pass [k+1].  The budget is recalibrated from
    measured sizes after each optimization round, so shrinkage earns
    budget back. *)

module U = Ucode.Types
module T = Telemetry.Collector

type result = {
  program : U.program;
  profile : Ucode.Profile.t;
  report : Report.t;
}

exception Invalid_ir of { stage : string; errors : string }

let () =
  Printexc.register_printer (function
    | Invalid_ir { stage; errors } ->
      Some (Printf.sprintf "HLO produced malformed IR (%s):\n%s" stage errors)
    | _ -> None)

(** Delete routines that can no longer execute: module-local routines
    and clones unreachable (via direct calls or taken addresses) from
    [main] and the exported user routines.  The count feeds Table 1's
    "Deletions" column.  The marks follow each routine's call edges and
    address references from the compile's fact table, so a routine no
    stage changed is not walked again; a deleted routine's facts are
    dropped with it. *)
let delete_unreachable ?(pass = -1) (st : State.t) : unit =
  let p = st.State.program in
  let is_root (r : U.routine) =
    r.U.r_name = p.U.p_main
    || (r.U.r_linkage = U.Exported
       && match r.U.r_origin with U.From_source -> true | U.Clone_of _ -> false)
  in
  let index = Ucode.Index.of_program p in
  let follow_addresses = not (Chaos.enabled Chaos.Prune_address_taken) in
  let marked = Array.make (Ucode.Index.size index) false in
  let rec mark name =
    match Ucode.Index.id index name with
    | None -> ()  (* builtin *)
    | Some i when marked.(i) -> ()
    | Some i ->
      marked.(i) <- true;
      let r = Ucode.Index.routine index i in
      List.iter
        (fun (e : Ucode.Callgraph.edge) ->
          match e.Ucode.Callgraph.e_callee with
          | U.Direct n -> mark n
          | U.Indirect _ -> ())
        (State.call_edges st r);
      if follow_addresses then List.iter mark (State.address_refs st r)
  in
  List.iter (fun r -> if is_root r then mark r.U.r_name) p.U.p_routines;
  let live, dead =
    List.partition
      (fun (r : U.routine) ->
        match Ucode.Index.id index r.U.r_name with
        | Some i -> marked.(i)
        | None -> false)
      p.U.p_routines
  in
  if dead <> [] then begin
    let dead = List.map (fun (r : U.routine) -> r.U.r_name) dead in
    st.State.program <- { p with U.p_routines = live };
    List.iter (State.drop_facts st) dead;
    st.State.report.Report.deletions <-
      st.State.report.Report.deletions + List.length dead;
    T.count "hlo.deletions" (List.length dead);
    List.iter
      (fun name ->
        T.decision ~kind:Telemetry.Event.Delete ~verdict:Telemetry.Event.Accepted
          ~pass name)
      dead
  end

let reoptimize (st : State.t) (touched : string list) : unit =
  if st.State.config.Config.optimize_between_passes && touched <> [] then
    st.State.program <-
      Opt.Pipeline.optimize_selected ~memo:st.State.memo st.State.program
        touched

let validate_if_needed (st : State.t) ~where =
  if st.State.config.Config.validate then
    match Ucode.Validate.check_program st.State.program with
    | [] -> ()
    | errors ->
      raise
        (Invalid_ir
           { stage = where; errors = Ucode.Validate.errors_to_string errors })

(** Run HLO.  [profile] should come from {!Interp.train} on the same
    (pre-HLO) program; pass {!Ucode.Profile.empty} for a heuristics-only
    compile.  The input program is first cleaned by the scalar
    optimizer (the paper's "classic optimizations performed at input
    time, mainly to reduce IR size") and the budget is anchored on the
    cleaned size. *)
let run ?(config = Config.default) ?(profile = Ucode.Profile.empty)
    (program : U.program) : result =
  T.with_span "hlo.run" @@ fun () ->
  (* One memo for the whole compile: a routine a stage lists as touched
     but left as it was (the cloner lists every clonee) is not
     optimized again. *)
  let memo = Opt.Pipeline.create_memo () in
  let program =
    if config.Config.optimize_between_passes then
      T.with_span "hlo.clean" (fun () ->
          Opt.Pipeline.optimize_program ~memo program)
    else program
  in
  let st = State.create config ~memo ~program ~profile in
  validate_if_needed st ~where:"clean";
  st.State.report.Report.cost_before <- Ucode.Size.program_cost program;
  Budget.recalibrate st.State.budget
    ~measured_cost:(Ucode.Size.program_cost program);
  T.gauge "hlo.budget.allowance" st.State.budget.Budget.allowance;
  (* The IPA dead-call cleanup above may already strand routines. *)
  T.with_span "hlo.prune" (fun () -> delete_unreachable st);
  validate_if_needed st ~where:"initial prune";
  let outliner_config =
    { Outliner.cold_fraction = config.Config.outline_cold_fraction;
      min_instructions = config.Config.outline_min_instructions;
      max_inputs = config.Config.outline_max_inputs }
  in
  (* Outlining first (when enabled): shrinking hot routines by their
     cold regions both lowers the quadratic cost the budget is anchored
     on and keeps the inliner's attention on code that runs. *)
  if config.Config.outline then begin
    T.with_span "hlo.outline" @@ fun () ->
    let n = Outliner.run_pass ~config:outliner_config st in
    st.State.report.Report.outlined <- n;
    T.annotate "regions" (Telemetry.Event.Int n);
    validate_if_needed st ~where:"outlining";
    if n > 0 then begin
      reoptimize st
        (List.map (fun (r : U.routine) -> r.U.r_name)
           st.State.program.U.p_routines);
      Budget.recalibrate st.State.budget
        ~measured_cost:(Ucode.Size.program_cost st.State.program)
    end
  end;
  let pass = ref 0 in
  let continue_ = ref true in
  while
    !continue_ && !pass < config.Config.pass_limit
    && (not (Budget.exhausted st.State.budget))
    && State.running st
  do
    (T.with_span "hlo.pass" ~attrs:[ ("pass", Telemetry.Event.Int !pass) ]
    @@ fun () ->
    let ops_before = Report.total_operations st.State.report in
    (* The policy's stage list, interpreted in order.  [touched]
       accumulates routines the transforming stages changed; [Clean]
       re-optimizes them and starts afresh.  With the default
       clone/inline/prune/clean/prune order this is instruction-for-
       instruction the loop body the pre-policy driver hard-coded. *)
    let touched = ref [] in
    let prunes = ref 0 in
    List.iter
      (fun stage ->
        match (stage : Policy.stage) with
        | Policy.Clone ->
          let t =
            T.with_span "hlo.clone" (fun () -> Cloner.run_pass st ~pass:!pass)
          in
          validate_if_needed st ~where:(Printf.sprintf "clone pass %d" !pass);
          touched := !touched @ t
        | Policy.Inline ->
          let t =
            T.with_span "hlo.inline" (fun () -> Inliner.run_pass st ~pass:!pass)
          in
          validate_if_needed st ~where:(Printf.sprintf "inline pass %d" !pass);
          touched := !touched @ t
        | Policy.Prune ->
          incr prunes;
          T.with_span "hlo.prune" (fun () -> delete_unreachable ~pass:!pass st);
          validate_if_needed st
            ~where:
              (Printf.sprintf
                 (if !prunes = 1 then "prune pass %d" else "final prune pass %d")
                 !pass)
        | Policy.Clean ->
          reoptimize st !touched;
          validate_if_needed st
            ~where:(Printf.sprintf "optimize after pass %d" !pass);
          touched := []
        | Policy.Outline ->
          (T.with_span "hlo.outline" @@ fun () ->
           let n = Outliner.run_pass ~config:outliner_config st in
           st.State.report.Report.outlined <-
             st.State.report.Report.outlined + n;
           T.annotate "regions" (Telemetry.Event.Int n);
           if n > 0 then
             touched :=
               !touched
               @ List.map
                   (fun (r : U.routine) -> r.U.r_name)
                   st.State.program.U.p_routines);
          validate_if_needed st ~where:(Printf.sprintf "outline pass %d" !pass))
      config.Config.stages;
    Budget.recalibrate st.State.budget
      ~measured_cost:(Ucode.Size.program_cost st.State.program);
    T.gauge "hlo.budget.spent" st.State.budget.Budget.spent;
    st.State.report.Report.passes_run <- st.State.report.Report.passes_run + 1;
    (* An idle pass means convergence — unless a later stage will
       release more budget, in which case the pass was idle merely
       because its allotment was too small. *)
    let stage_now = Budget.stage_allowance st.State.budget ~pass:!pass in
    if
      Report.total_operations st.State.report = ops_before
      && stage_now >= st.State.budget.Budget.allowance
    then continue_ := false);
    incr pass
  done;
  st.State.report.Report.cost_after <- Ucode.Size.program_cost st.State.program;
  T.gauge "hlo.budget.spent" st.State.budget.Budget.spent;
  State.publish_fact_counts st;
  let cs = Summary_cache.stats () in
  T.gauge "hlo.summary_cache.hits" (float_of_int cs.Summary_cache.hits);
  T.gauge "hlo.summary_cache.misses" (float_of_int cs.Summary_cache.misses);
  T.gauge "hlo.summary_cache.entries" (float_of_int cs.Summary_cache.entries);
  { program = st.State.program; profile = st.State.profile;
    report = st.State.report }
