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

(* One routine to convergence.  The flag says whether the run
   converged: its last round was a structural no-op, quiet or noisy,
   rather than cut off by [max_rounds]. *)
let converge ~removable ~arity_of ~max_rounds ~stats (r : U.routine) :
    U.routine * bool =
  (* Convergence: every pass's flag means exactly "my output differs
     from my input", and each pass learns it from its own rewrites, in
     a flag local to the call (passes run on worker domains), never by
     comparing routines.  So a quiet round (no pass flagged a change)
     stops with no structural comparison at all.  A noisy round still
     compares input to output, because two passes can oscillate — one
     rewrites, a later one undoes it — leaving the round a structural
     no-op while flags fired; without the compare such a routine burns
     every remaining round.  Net: at most one compare per *changed*
     round, none on the final quiet round. *)
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
    if n = 0 then (r, false)
    else begin
      stats.rounds <- stats.rounds + 1;
      any := false;
      let r' = round r in
      if !any && r' <> r then loop r' (n - 1) else (r', true)
    end
  in
  loop r max_rounds

(** Optimize one routine.  [removable] enables deletion of unused calls
    proven harmless by {!Ipa}; [arity_of] enables devirtualization of
    indirect calls whose target and arity are provably known. *)
let optimize_routine ?(removable = fun _ -> false)
    ?(arity_of = fun (_ : string) -> (None : int option)) ?(max_rounds = 4)
    ?stats (r : U.routine) : U.routine =
  let stats = match stats with Some s -> s | None -> make_stats () in
  fst (converge ~removable ~arity_of ~max_rounds ~stats r)

(* The fixpoint memo, by routine name.  A converged run's output is a
   fixpoint of one round: re-run with the same answers to every
   [removable]/[arity_of] question, the pipeline performs one no-op
   round and returns an equal routine.  A capped run's output is not,
   so only converged runs are recorded.  Workers never touch the
   table. *)
type entry = {
  e_output : U.routine;
  e_removable : (string * bool) list;
  e_arity : (string * int option) list;
}

type memo = { mutable entries : (string, entry) Hashtbl.t }

let create_memo () = { entries = Hashtbl.create 64 }

(* Optimize the routines of [p] that [selected] picks, passing the rest
   through.  One index gives the read-only program facts every routine
   shares: the deletable-call set (the "limited interprocedural
   analysis" of the paper) that per-routine DCE reads, and the arities
   that devirtualization reads.  Routines are independent given those
   facts, so they are sharded across the ambient domain pool; the
   order-preserving map keeps the routine list — and with it every
   downstream decision — identical to a sequential run.  A selected
   routine the memo vouches for is passed through too. *)
let optimize_where ~memo ~max_rounds (p : U.program) selected : U.program =
  let index = Ucode.Index.of_program p in
  let deletable = Ipa.deletable_routines index p in
  let removable n = U.String_set.mem n deletable in
  let arity_of n = Ucode.Index.arity index n in
  let reusable (r : U.routine) =
    match Hashtbl.find_opt memo.entries r.U.r_name with
    | Some e ->
      e.e_output == r
      && List.for_all (fun (n, d) -> removable n = d) e.e_removable
      && List.for_all (fun (n, a) -> arity_of n = a) e.e_arity
    | None -> false
  in
  let optimized = ref 0 and reused = ref 0 in
  let work =
    List.map
      (fun (r : U.routine) ->
        let run =
          selected r.U.r_name
          && if reusable r then (incr reused; false) else (incr optimized; true)
        in
        (r, run))
      p.U.p_routines
  in
  if Telemetry.Collector.enabled () then begin
    Telemetry.Collector.annotate "routines" (Telemetry.Event.Int !optimized);
    Telemetry.Collector.count "opt.routines_optimized" !optimized;
    Telemetry.Collector.count "opt.routines_reused" !reused
  end;
  (* Runs on a worker domain: the questions go to a log of this
     routine's own. *)
  let optimize (r : U.routine) =
    Telemetry.Collector.with_span "opt.routine" @@ fun () ->
    if Telemetry.Collector.enabled () then
      Telemetry.Collector.annotate "name" (Telemetry.Event.Str r.U.r_name);
    let asked_removable = ref [] and asked_arity = ref [] in
    let removable n =
      let d = removable n in
      asked_removable := (n, d) :: !asked_removable;
      d
    in
    let arity_of n =
      let a = arity_of n in
      asked_arity := (n, a) :: !asked_arity;
      a
    in
    let r', converged =
      converge ~removable ~arity_of ~max_rounds ~stats:(make_stats ()) r
    in
    ( r',
      if converged then
        Some
          { e_output = r';
            e_removable = List.sort_uniq compare !asked_removable;
            e_arity = List.sort_uniq compare !asked_arity }
      else None )
  in
  let results =
    Parallel.Pool.map_list
      (fun (r, run) -> if run then optimize r else (r, None))
      work
  in
  let kept = Hashtbl.create (Hashtbl.length memo.entries) in
  List.iter
    (fun ((r : U.routine), recorded) ->
      match recorded with
      | Some e -> Hashtbl.replace kept r.U.r_name e
      | None -> (
        match Hashtbl.find_opt memo.entries r.U.r_name with
        | Some e when e.e_output == r -> Hashtbl.replace kept r.U.r_name e
        | _ -> ()))
    results;
  memo.entries <- kept;
  { p with U.p_routines = List.map fst results }

(** Optimize every routine of a program. *)
let optimize_program ?(memo = create_memo ()) ?(max_rounds = 4)
    (p : U.program) : U.program =
  Telemetry.Collector.with_span "opt.program" @@ fun () ->
  optimize_where ~memo ~max_rounds p (fun _ -> true)

(** Optimize only the named routines (used by HLO after a pass touched
    a subset of the program). *)
let optimize_selected ?(memo = create_memo ()) ?(max_rounds = 4)
    (p : U.program) names : U.program =
  Telemetry.Collector.with_span "opt.selected" @@ fun () ->
  let target = U.String_set.of_list names in
  optimize_where ~memo ~max_rounds p (fun name -> U.String_set.mem name target)
