(** Minimal interprocedural analysis: deletable-call detection.

    The paper notes that HLO performs "a limited amount of
    interprocedural analysis" after input; its headline use is
    discovering that the stubbed-out curses routines of [072.sc] have
    no side effects, so the calls to them can be deleted *before*
    inlining spends budget on them.

    A routine is [deletable] when calls to it can be erased if the
    result is unused.  That requires both purity (no stores, no
    builtin/external calls, no indirect calls, only deletable direct
    callees) and guaranteed termination, which we establish
    conservatively: an acyclic CFG and no recursion (the routine's SCC
    is trivial).  Division traps are the one effect we knowingly give
    up, as production compilers do. *)

module U = Ucode.Types
module CG = Ucode.Callgraph

let has_loop (r : U.routine) : bool =
  (* A back edge exists iff some DFS reaches an ancestor: detect via
     coloring. *)
  let succs = Cfg.successors r in
  let color = Hashtbl.create 16 in (* 1 = in progress, 2 = done *)
  let exception Cycle in
  let rec visit l =
    match Hashtbl.find_opt color l with
    | Some 1 -> raise Cycle
    | Some _ -> ()
    | None ->
      Hashtbl.replace color l 1;
      List.iter visit (Option.value ~default:[] (U.Int_map.find_opt l succs));
      Hashtbl.replace color l 2
  in
  try
    visit (U.entry_block r).U.b_id;
    false
  with Cycle -> true

(** Set of routine names whose calls may be deleted when unused, over
    the program [cg] was built from. *)
let deletable_routines (cg : CG.t) : U.String_set.t =
  let p = cg.CG.cg_program in
  let scc_sizes =
    List.fold_left
      (fun m comp ->
        let n = List.length comp in
        List.fold_left (fun m name -> U.String_map.add name n m) m comp)
      U.String_map.empty (CG.sccs cg)
  in
  (* The cheap conditions go first; the DFS of [has_loop] runs only
     for a routine that passes them all. *)
  let locally_ok (r : U.routine) =
    U.String_map.find_opt r.U.r_name scc_sizes = Some 1
    && (not (List.exists (fun e -> e.CG.e_caller = r.U.r_name
                                   && (match e.CG.e_callee with
                                      | U.Direct n -> n = r.U.r_name
                                      | U.Indirect _ -> false))
               (CG.outgoing cg r.U.r_name)))
    && List.for_all
         (fun (b : U.block) ->
           List.for_all
             (fun i ->
               match i with
               | U.Store _ -> false
               | U.Call { c_callee = U.Indirect _; _ } -> false
               | U.Call { c_callee = U.Direct n; _ } ->
                 (* resolved by the fixpoint below; builtins never *)
                 not (U.is_builtin n) && Ucode.Index.mem cg.CG.cg_index n
               | _ -> true)
             b.U.b_instrs)
         r.U.r_blocks
    && not (has_loop r)
  in
  (* Start from all locally-acceptable routines and iteratively remove
     those calling a non-deletable routine. *)
  let candidates =
    List.filter locally_ok p.U.p_routines
    |> List.map (fun (r : U.routine) -> r.U.r_name)
    |> U.String_set.of_list
  in
  let calls_ok set name =
    List.for_all
      (fun e ->
        match e.CG.e_callee with
        | U.Direct n -> U.String_set.mem n set
        | U.Indirect _ -> false)
      (CG.outgoing cg name)
  in
  let rec fixpoint set =
    let set' = U.String_set.filter (calls_ok set) set in
    if U.String_set.equal set set' then set else fixpoint set'
  in
  fixpoint candidates
