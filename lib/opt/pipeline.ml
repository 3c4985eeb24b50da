(** The optimization pipeline.

    This is the stand-in for the paper's "aggressive, state-of-the-art
    global optimizer": the set of scalar transformations the back end
    applies to each routine.  HLO runs it (a) once after input to
    shrink the IR, (b) on every routine it inlines into or clones (the
    "optimize and recalibrate" steps of Figures 3 and 4), and (c) the
    back end conceptually runs it again before code generation.

    Each pass returns a changed flag; the pipeline iterates until quiet
    or until the round bound is hit. *)

module U = Ucode.Types

type stats = {
  mutable rounds : int;
  passes_changed : (string, int) Hashtbl.t;
}

let make_stats () = { rounds = 0; passes_changed = Hashtbl.create 16 }

let changed_counts stats =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) stats.passes_changed []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let note stats name =
  Hashtbl.replace stats.passes_changed name
    (1 + Option.value ~default:0 (Hashtbl.find_opt stats.passes_changed name))

(** Optimize one routine.  [removable] enables deletion of unused calls
    proven harmless by {!Ipa}; [arity_of] enables devirtualization of
    indirect calls whose target and arity are provably known. *)
let optimize_routine ?(removable = fun _ -> false)
    ?(arity_of = fun (_ : string) -> (None : int option)) ?(max_rounds = 4)
    ?stats (r : U.routine) : U.routine =
  let stats = match stats with Some s -> s | None -> make_stats () in
  (* Convergence: a quiet round (no pass flagged a change) stops with no
     structural comparison at all.  A noisy round still compares input
     to output, because two passes can oscillate — one rewrites, a later
     one undoes it — leaving the round a structural no-op while flags
     fired; without the compare such a routine burns every remaining
     round.  Net: at most one compare per *changed* round, none on the
     final quiet round. *)
  let any = ref false in
  let run_pass name f r =
    let r', changed = f r in
    if changed then begin
      any := true;
      note stats name
    end;
    r'
  in
  let round r =
    r
    |> run_pass "simplify" Simplify.run
    |> run_pass "constprop" (Constprop.run ~arity_of)
    |> run_pass "copyprop" Copyprop.run
    |> run_pass "licm" Licm.run
    |> run_pass "strength" Strength.run
    |> run_pass "cse" Cse.run
    |> run_pass "dce" (Dce.run ~removable)
    |> run_pass "simplify" Simplify.run
  in
  let rec loop r n =
    if n = 0 then r
    else begin
      stats.rounds <- stats.rounds + 1;
      any := false;
      let r' = round r in
      if !any && r' <> r then loop r' (n - 1) else r'
    end
  in
  loop r max_rounds

(* Scheduling priority for the parallel map: a routine's rank in the
   bottom-up SCC order.  Leaf callees are optimized first, mirroring
   the sequential optimizer's natural order of usefulness — the
   priority biases which shard a worker picks up next but never what
   any shard computes, so results are independent of it. *)
let scc_priority (cg : Ucode.Callgraph.t) : int array option =
  if Parallel.Pool.get_jobs () <= 1 then None
  else begin
    let ids = Ucode.Callgraph.scc_ids cg in
    Some
      (Array.of_list
         (List.map
            (fun (r : U.routine) ->
              Option.value ~default:0 (U.String_map.find_opt r.U.r_name ids))
            cg.Ucode.Callgraph.cg_program.U.p_routines))
  end

(* Optimize the routines of [p] that [selected] picks, passing the rest
   through.  One call graph gives the read-only program facts every
   routine shares: the deletable-call set (the "limited
   interprocedural analysis" of the paper) that per-routine DCE reads,
   and the arities that devirtualization reads.  Routines are
   independent given those facts, so they are sharded across the
   ambient domain pool; the order-preserving map keeps the routine
   list — and with it every downstream decision — identical to a
   sequential run. *)
let optimize_where ~max_rounds (p : U.program) selected : U.program =
  let cg = Ucode.Callgraph.build p in
  let deletable = Ipa.deletable_routines cg in
  let removable n = U.String_set.mem n deletable in
  let arity_of n = Ucode.Index.arity cg.Ucode.Callgraph.cg_index n in
  { p with
    U.p_routines =
      Parallel.Pool.map_list ?priority:(scc_priority cg)
        (fun (r : U.routine) ->
          if selected r.U.r_name then begin
            Telemetry.Collector.with_span "opt.routine" @@ fun () ->
            if Telemetry.Collector.enabled () then
              Telemetry.Collector.annotate "name"
                (Telemetry.Event.Str r.U.r_name);
            optimize_routine ~removable ~arity_of ~max_rounds r
          end
          else r)
        p.U.p_routines }

let annotate_routines n =
  if Telemetry.Collector.enabled () then begin
    Telemetry.Collector.annotate "routines" (Telemetry.Event.Int n);
    Telemetry.Collector.count "opt.routines_optimized" n
  end

(** Optimize every routine of a program. *)
let optimize_program ?(max_rounds = 4) (p : U.program) : U.program =
  Telemetry.Collector.with_span "opt.program" @@ fun () ->
  annotate_routines (List.length p.U.p_routines);
  optimize_where ~max_rounds p (fun _ -> true)

(** Optimize only the named routines (used by HLO after a pass touched
    a subset of the program). *)
let optimize_selected ?(max_rounds = 4) (p : U.program) names : U.program =
  Telemetry.Collector.with_span "opt.selected" @@ fun () ->
  annotate_routines (List.length names);
  let target = U.String_set.of_list names in
  optimize_where ~max_rounds p (fun name -> U.String_set.mem name target)
