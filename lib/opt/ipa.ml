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

(** Set of routine names of [p] whose calls may be deleted when
    unused; [index] must be built from [p].  One memoized DFS over the
    direct calls: a routine is deletable when its own body passes the
    local tests, every direct callee is deletable, and the DFS never
    comes back to it.  A routine reads [false] while it is on the DFS
    path, so a call back to it (recursion, direct or mutual) fails the
    caller, and with it every routine of the cycle — exactly the
    routines in a non-trivial SCC or with a self-call. *)
let deletable_routines (index : Ucode.Index.t) (p : U.program) :
    U.String_set.t =
  let verdicts = Array.make (Ucode.Index.size index) None in
  let rec deletable name =
    match Ucode.Index.id index name with
    | None -> false
    | Some i -> (
      match verdicts.(i) with
      | Some d -> d
      | None ->
        let r = Ucode.Index.routine index i in
        verdicts.(i) <- Some false;
        (* The DFS of [has_loop] runs only for a routine whose body and
           callees pass. *)
        let d =
          List.for_all
            (fun (b : U.block) ->
              List.for_all
                (function
                  | U.Store _ | U.Call { c_callee = U.Indirect _; _ } -> false
                  | U.Call { c_callee = U.Direct n; _ } ->
                    (not (U.is_builtin n)) && deletable n
                  | _ -> true)
                b.U.b_instrs)
            r.U.r_blocks
          && not (has_loop r)
        in
        verdicts.(i) <- Some d;
        d)
  in
  List.fold_left
    (fun set (r : U.routine) ->
      if deletable r.U.r_name then U.String_set.add r.U.r_name set else set)
    U.String_set.empty p.U.p_routines
