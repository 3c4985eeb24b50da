(* Tests for the intraprocedural optimizer: each pass on targeted IR
   shapes, plus the IPA purity analysis.  Semantic preservation over
   random programs is covered separately in test_properties. *)

module U = Ucode.Types
module B = Ucode.Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let compile src = Minic.Compile.compile_string src

let routine_named p name = U.find_routine_exn p name

(* All instructions of a routine, flattened. *)
let instrs_of (r : U.routine) =
  List.concat_map (fun (b : U.block) -> b.U.b_instrs) r.U.r_blocks

let count_instrs pred r = List.length (List.filter pred (instrs_of r))

let is_load = function U.Load _ -> true | _ -> false

(* Optimize one routine out of a compiled program. *)
let optimize_main src =
  let p = compile src in
  let p' = Opt.Pipeline.optimize_program p in
  (p, p', routine_named p' "main")

let run_program p = (Interp.run p).Interp.output

(* ------------------------------------------------------------------ *)
(* Constant propagation.                                               *)

let test_constprop_folds () =
  let _, p', main =
    optimize_main
      "func main() { var a = 6; var b = 7; print_int(a * b); return 0; }"
  in
  (* After constprop + friends, no arithmetic survives: the argument of
     print_int is a constant. *)
  check_int "no binops left" 0
    (count_instrs (function U.Binop _ -> true | _ -> false) main);
  check_string "semantics" "42\n" (run_program p')

let test_constprop_folds_branch () =
  let _, p', main =
    optimize_main
      {| func main() {
           if (2 > 1) { print_int(1); } else { print_int(2); }
           return 0;
         } |}
  in
  check_int "single block remains" 1 (List.length main.U.r_blocks);
  check_string "kept the right arm" "1\n" (run_program p')

let test_constprop_devirtualizes () =
  let src = {|
    func target(x) { return x + 1; }
    func main() {
      var f = &target;
      print_int(f(41));
      return 0;
    }
  |} in
  let _, p', main = optimize_main src in
  let direct =
    count_instrs
      (function U.Call { c_callee = U.Direct "target"; _ } -> true | _ -> false)
      main
  in
  let indirect =
    count_instrs
      (function U.Call { c_callee = U.Indirect _; _ } -> true | _ -> false)
      main
  in
  check_int "devirtualized" 1 direct;
  check_int "no indirect left" 0 indirect;
  check_string "semantics" "42\n" (run_program p')

let test_constprop_keeps_div_by_zero () =
  (* 1/0 must still trap after optimization. *)
  let p = compile "func main() { var z = 0; return 1 / z; }" in
  let p' = Opt.Pipeline.optimize_program p in
  (match Interp.run p' with
  | exception Interp.Trap (Interp.Division_by_zero, _) -> ()
  | _ -> Alcotest.fail "optimizer erased a division trap")

let test_constprop_join_is_sound () =
  (* x is 1 or 2 depending on input-ish control flow: must NOT fold. *)
  let src = {|
    global g = 1;
    func main() {
      var x = 0;
      if (g) { x = 1; } else { x = 2; }
      print_int(x);
      return 0;
    }
  |} in
  let p = compile src in
  let p' = Opt.Pipeline.optimize_program p in
  check_string "joined value not folded wrong" "1\n" (run_program p')

let test_algebraic_identities () =
  let src = {|
    func main() {
      var x = alloc(1);
      x[0] = 21;
      var v = x[0];
      print_int(v * 1 + 0 - 0 + v * 1);
      return 0;
    }
  |} in
  let _, p', main = optimize_main src in
  (* v*1 and +0/-0 disappear; only the final add of v+v remains. *)
  check_bool "simplified" true
    (count_instrs (function U.Binop (_, U.Mul, _, _) -> true | _ -> false) main
     = 0);
  check_string "semantics" "42\n" (run_program p')

(* ------------------------------------------------------------------ *)
(* CSE.                                                                *)

let test_cse_dedups () =
  (* Same global loaded twice with no intervening store: one load. *)
  let src = {|
    global g = 21;
    func main() { print_int(g + g); return 0; }
  |} in
  let _, p', main = optimize_main src in
  check_int "one load" 1 (count_instrs is_load main);
  check_string "semantics" "42\n" (run_program p')

let test_cse_store_invalidates () =
  let src = {|
    global g = 1;
    func main() {
      var a = g;
      g = a + 1;
      var b = g;
      print_int(a * 10 + b);
      return 0;
    }
  |} in
  let _, p', main = optimize_main src in
  (* The second read of g must survive the store. *)
  check_int "two loads" 2 (count_instrs is_load main);
  check_string "semantics" "12\n" (run_program p')

let test_cse_call_invalidates () =
  let src = {|
    global g = 1;
    noinline func bump() { g = g + 1; return 0; }
    func main() {
      var a = g;
      bump();
      var b = g;
      print_int(a * 10 + b);
      return 0;
    }
  |} in
  let p = compile src in
  let p' = Opt.Pipeline.optimize_program p in
  check_string "call clobbers memory" "12\n" (run_program p')

(* ------------------------------------------------------------------ *)
(* DCE and IPA.                                                        *)

let test_dce_removes_dead_code () =
  let src = {|
    func main() {
      var dead = 1 + 2 + 3;
      var dead2 = dead * 5;
      print_int(7);
      return 0;
    }
  |} in
  let _, _, main = optimize_main src in
  (* Everything except the const 7, the call and the return const. *)
  check_bool "shrunk" true (Ucode.Size.routine_size main <= 4)

let test_dce_keeps_impure_calls () =
  let src = {|
    global g;
    noinline func effect() { g = g + 1; return g; }
    func main() {
      var unused = effect();
      print_int(g);
      return 0;
    }
  |} in
  let p = compile src in
  let p' = Opt.Pipeline.optimize_program p in
  check_string "side effect kept" "1\n" (run_program p')

let test_ipa_deletable () =
  (* Stubbed curses-style routines: pure, loop-free, call-free. *)
  let src = {|
    func stub1(x) { return x * 2; }
    func stub2(x) { return stub1(x) + 1; }
    func looper(x) { var s = 0; while (x > 0) { s = s + x; x = x - 1; } return s; }
    func storer(x) { g = x; return x; }
    global g;
    func recur(x) { if (x == 0) { return 0; } return recur(x - 1); }
    func ping(x) { if (x == 0) { return 0; } return pong(x - 1); }
    func pong(x) { return ping(x) + 1; }
    func above_cycle(x) { return pong(x) + stub2(x); }
    func main() { return 0; }
  |} in
  let p = compile src in
  let deletable = Opt.Ipa.deletable_routines (Ucode.Index.of_program p) p in
  let has n = U.String_set.mem n deletable in
  check_bool "stub1 deletable" true (has "stub1");
  check_bool "stub2 deletable (transitively)" true (has "stub2");
  check_bool "looper not (loop)" false (has "looper");
  check_bool "storer not (store)" false (has "storer");
  check_bool "recur not (recursion)" false (has "recur");
  check_bool "ping not (mutual recursion)" false (has "ping");
  check_bool "pong not (mutual recursion)" false (has "pong");
  check_bool "above_cycle not (calls into a cycle)" false (has "above_cycle")

(* The deletable set as specified, with a call graph: a routine whose
   body has no store, no indirect call and no call to a builtin or an
   unknown routine, whose CFG has no loop, whose SCC has one routine and
   which does not call itself; then the greatest fixpoint of "every
   direct callee is in the set" over those routines. *)
let reference_deletable (p : U.program) =
  let cg = Ucode.Callgraph.build p in
  let scc_size = Hashtbl.create 16 in
  List.iter
    (fun comp ->
      List.iter (fun n -> Hashtbl.replace scc_size n (List.length comp)) comp)
    (Ucode.Callgraph.sccs cg);
  let direct_callees (r : U.routine) =
    List.filter_map
      (function U.Call { c_callee = U.Direct n; _ } -> Some n | _ -> None)
      (instrs_of r)
  in
  let body_ok (r : U.routine) =
    List.for_all
      (function
        | U.Store _ | U.Call { c_callee = U.Indirect _; _ } -> false
        | U.Call { c_callee = U.Direct n; _ } ->
          (not (U.is_builtin n)) && U.find_routine p n <> None
        | _ -> true)
      (instrs_of r)
  in
  let candidates =
    List.filter
      (fun (r : U.routine) ->
        Hashtbl.find_opt scc_size r.U.r_name = Some 1
        && (not (List.mem r.U.r_name (direct_callees r)))
        && body_ok r
        && not (Opt.Ipa.has_loop r))
      p.U.p_routines
  in
  let rec fixpoint set =
    let set' =
      U.String_set.filter
        (fun n ->
          List.for_all
            (fun c -> U.String_set.mem c set)
            (direct_callees (U.find_routine_exn p n)))
        set
    in
    if U.String_set.equal set set' then set else fixpoint set'
  in
  fixpoint
    (U.String_set.of_list
       (List.map (fun (r : U.routine) -> r.U.r_name) candidates))

(* Generated programs whose deletable set is not empty, over every
   input the properties below saw: they would be vacuous without some.
   ([Prog_gen.Scale] bodies all store, so they never have one.) *)
let nonempty_deletable = ref 0

let deletable_matches_reference ?(nonempty = nonempty_deletable) p =
  let got = Opt.Ipa.deletable_routines (Ucode.Index.of_program p) p in
  let want = reference_deletable p in
  if not (U.String_set.is_empty got) then incr nonempty;
  U.String_set.equal got want
  || QCheck.Test.fail_reportf "deletable {%s}, reference {%s}"
       (String.concat " " (U.String_set.elements got))
       (String.concat " " (U.String_set.elements want))

(* Random call graphs with cycles: every routine calls up to three
   routines of the program, itself included, and may store or loop.
   Prog_gen's programs only call downward, so this is where recursion,
   direct and mutual, meets the property. *)
let gen_call_graph_sources : string QCheck.Gen.t =
 fun st ->
  let module G = QCheck.Gen in
  let n = G.int_range 1 8 st in
  let body i =
    let calls =
      List.init (G.int_range 0 3 st) (fun _ ->
          Printf.sprintf "s = s + f%d(x - 1);" (G.int_bound (n - 1) st))
    in
    let store = if G.int_bound 5 st = 0 then [ "g = s;" ] else [] in
    let loop =
      if G.int_bound 5 st = 0 then [ "while (x > 0) { x = x - 1; }" ] else []
    in
    Printf.sprintf "func f%d(x) { var s = x; %s return s; }" i
      (String.concat " " (calls @ store @ loop))
  in
  String.concat "\n"
    ("global g;" :: List.init n body @ [ "func main() { return f0(3); }" ])

let prop_deletable_call_graphs =
  QCheck.Test.make ~count:300 ~name:"deletable set = reference, random call graphs"
    (QCheck.make ~print:Fun.id gen_call_graph_sources)
    (fun src -> deletable_matches_reference (compile src))

let prop_deletable_shapes =
  let of_shape sh =
    deletable_matches_reference
      (fst (Minic.Compile.compile_program (Prog_gen.render_shape sh)))
  in
  [ QCheck.Test.make ~count:100 ~name:"deletable set = reference, tame"
      (Prog_gen.arbitrary_shape Prog_gen.tame_opts) of_shape;
    QCheck.Test.make ~count:100 ~name:"deletable set = reference, wild"
      (Prog_gen.arbitrary_shape Prog_gen.wild_opts) of_shape;
    QCheck.Test.make ~count:100 ~name:"deletable set = reference, skewed"
      Prog_gen.arbitrary_skewed_shape of_shape ]

let test_deletable_workloads () =
  let nonempty = ref 0 in
  List.iter
    (fun b ->
      let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
      check_bool b.Workloads.Suite.b_name true
        (deletable_matches_reference ~nonempty p))
    Workloads.Suite.all;
  check_bool "some workload has a non-empty deletable set" true (!nonempty > 0)

(* Runs after the properties: some generated program had a routine to
   delete calls to. *)
let test_deletable_not_vacuous () =
  check_bool "some generated program has a non-empty deletable set" true
    (!nonempty_deletable > 0)

(* ------------------------------------------------------------------ *)
(* The fixpoint memo.                                                  *)

let replace_routine (p : U.program) (r : U.routine) =
  { p with
    U.p_routines =
      List.map
        (fun (q : U.routine) -> if q.U.r_name = r.U.r_name then r else q)
        p.U.p_routines }

let calls_to name r =
  count_instrs
    (function U.Call { c_callee = U.Direct n; _ } -> n = name | _ -> false)
    r

let test_memo_reuses_converged () =
  let p =
    compile
      "func f(x) { return x * 2; }\n\
       func main() { print_int(f(3)); return 0; }"
  in
  let memo = Opt.Pipeline.create_memo () in
  let p1 = Opt.Pipeline.optimize_program ~memo p in
  let p2 = Opt.Pipeline.optimize_selected ~memo p1 [ "main"; "f"; "main" ] in
  List.iter2
    (fun (a : U.routine) b ->
      check_bool ("reused " ^ a.U.r_name) true (a == b))
    p1.U.p_routines p2.U.p_routines;
  (* Without the memo the same routines come back equal, rebuilt. *)
  let p3 = Opt.Pipeline.optimize_selected p1 [ "main"; "f" ] in
  check_bool "fresh run agrees" true (p3.U.p_routines = p2.U.p_routines);
  check_bool "fresh run rebuilds" false
    (routine_named p3 "main" == routine_named p1 "main")

(* The caller stays physically the same while its callee loses its
   store: the caller's recorded answer for [removable "f"] no longer
   holds, so it is optimized again and the dead call goes, exactly as
   without a memo. *)
let test_memo_replays_facts () =
  let src body =
    compile
      (Printf.sprintf
         "global g;\n\
          func f(x) { %s return x; }\n\
          func main() { f(1); print_int(2); return 0; }"
         body)
  in
  let memo = Opt.Pipeline.create_memo () in
  let p1 = Opt.Pipeline.optimize_program ~memo (src "g = x;") in
  check_int "call to a storing f kept" 1 (calls_to "f" (routine_named p1 "main"));
  let pure_f = routine_named (Opt.Pipeline.optimize_program (src "")) "f" in
  let p2 = replace_routine p1 pure_f in
  check_bool "caller unchanged" true
    (routine_named p2 "main" == routine_named p1 "main");
  let with_memo = Opt.Pipeline.optimize_selected ~memo p2 [ "main" ] in
  let fresh = Opt.Pipeline.optimize_selected p2 [ "main" ] in
  check_int "dead call to the pure f deleted" 0
    (calls_to "f" (routine_named with_memo "main"));
  check_bool "same as a fresh memo" true
    (with_memo.U.p_routines = fresh.U.p_routines)

(* A run cut off by the round cap has not reached its fixpoint, so it
   is not recorded: a second capped call runs it on, as without a
   memo. *)
let test_memo_skips_capped_runs () =
  List.iter
    (fun b ->
      let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
      let names = List.map (fun (r : U.routine) -> r.U.r_name) p.U.p_routines in
      let twice memo =
        let p1 = Opt.Pipeline.optimize_program ?memo ~max_rounds:1 p in
        Opt.Pipeline.optimize_selected ?memo ~max_rounds:1 p1 names
      in
      let with_memo = twice (Some (Opt.Pipeline.create_memo ())) in
      let without = twice None in
      check_bool b.Workloads.Suite.b_name true
        (with_memo.U.p_routines = without.U.p_routines))
    Workloads.Suite.all

let test_ipa_deletes_stub_calls () =
  (* The 072.sc scenario: calls to do-nothing display routines in the
     hot loop disappear entirely. *)
  let curses = "func move_to(r, c) { return r * 80 + c; }" in
  let app = {|
    func main() {
      var s = 0;
      for (var i = 0; i < 5; i = i + 1) {
        move_to(i, i);
        s = s + i;
      }
      print_int(s);
      return 0;
    }
  |} in
  let p, _ =
    Minic.Compile.compile_program
      [ Minic.Compile.source ~module_name:"curses" curses;
        Minic.Compile.source ~module_name:"app" app ]
  in
  let p' = Opt.Pipeline.optimize_program p in
  let main = routine_named p' "main" in
  let calls_to_move =
    count_instrs
      (function
        | U.Call { c_callee = U.Direct "move_to"; _ } -> true | _ -> false)
      main
  in
  check_int "stub call deleted" 0 calls_to_move;
  check_string "semantics" "10\n" (run_program p')

(* ------------------------------------------------------------------ *)
(* Simplify.                                                           *)

let test_simplify_unreachable () =
  let src = {|
    func main() {
      return 1;
      print_int(99);
    }
  |} in
  let _, _, main = optimize_main src in
  check_int "dead tail removed" 1 (List.length main.U.r_blocks)

let test_simplify_merges_chains () =
  (* Lowering produces jump chains around ifs; after simplification of
     a straight-line body only one block should remain. *)
  let src = {|
    func main() {
      var a = 1;
      var b = a + 1;
      var c = b + 1;
      print_int(c);
      return 0;
    }
  |} in
  let _, _, main = optimize_main src in
  check_int "one block" 1 (List.length main.U.r_blocks)

let test_simplify_branch_same_target () =
  let fresh_site, _ = B.site_counter () in
  let b, _ = B.create ~name:"f" ~module_name:"m" ~nparams:0 ~fresh_site () in
  let l0 = B.fresh_label b in
  let l1 = B.fresh_label b in
  B.start_block b l0;
  let c = B.const b 1L in
  B.seal b (U.Branch (c, l1, l1));
  B.start_block b l1;
  B.seal b (U.Return None);
  let r = B.finish b in
  let r', changed = Opt.Simplify.run r in
  check_bool "changed" true changed;
  check_int "merged" 1 (List.length r'.U.r_blocks)

let test_simplify_idempotent_on_workload () =
  let p = Workloads.Suite.compile (Workloads.Suite.find "022.li")
      ~input:Workloads.Suite.Train in
  List.iter
    (fun r ->
      let r1, _ = Opt.Simplify.run r in
      let r2, changed = Opt.Simplify.run r1 in
      check_bool "idempotent" false changed;
      check_bool "stable" true (r1 = r2))
    p.U.p_routines

(* ------------------------------------------------------------------ *)
(* Changed flags.                                                      *)

(* Every pass's changed flag must mean exactly "the output differs
   structurally from the input": the pipeline's quiet-round test and
   its per-pass counts read the flags instead of comparing routines.
   Checked on every routine of a generated program, raw and after one
   pipeline round, with the program facts the pipeline passes.
   Simplify's output must also be simplified, and a second run over it
   must report no change.  [flag_counts] tallies, per pass, the states it changed and the
   states it left alone, over every input the properties saw. *)
let flag_counts : (string, int * int) Hashtbl.t = Hashtbl.create 8

(* What Simplify leaves behind, checked without it: no same-target
   branch, no block unreachable from the entry, no jump into an empty
   block that jumps on, and no block whose only predecessor jumps to
   it.  A clean-up that rewrites without raising its flag has its
   rewrite thrown away when it is the step's only one, so this is what
   shows it. *)
let simplified (r : U.routine) =
  let entry = (U.entry_block r).U.b_id in
  let reach = Opt.Cfg.reachable r and preds = Opt.Cfg.predecessors r in
  let block l = List.find_opt (fun (b : U.block) -> b.U.b_id = l) r.U.r_blocks in
  let threadable t =
    match block t with
    | Some { U.b_instrs = []; b_term = U.Jump u; _ } -> u <> t
    | _ -> false
  in
  let absorbable t =
    t <> entry
    &&
    match U.Int_map.find_opt t preds with
    | Some [ p ] -> (
      p <> t
      && match block p with Some b -> b.U.b_term = U.Jump t | None -> false)
    | _ -> false
  in
  List.for_all
    (fun (b : U.block) ->
      U.Int_set.mem b.U.b_id reach
      && (match b.U.b_term with U.Branch (_, l1, l2) -> l1 <> l2 | _ -> true)
      && (not (List.exists threadable (U.term_targets b.U.b_term)))
      && not (absorbable b.U.b_id))
    r.U.r_blocks

let check_flags ~removable ~arity_of (r : U.routine) =
  let passes =
    [ ("simplify", Opt.Simplify.run);
      ("constprop", Opt.Constprop.run ~arity_of);
      ("copyprop", Opt.Copyprop.run);
      ("licm", Opt.Licm.run);
      ("strength", Opt.Strength.run);
      ("cse", Opt.Cse.run);
      ("dce", Opt.Dce.run ~removable) ]
  in
  let check_state state (r : U.routine) =
    List.iter
      (fun (name, run) ->
        let r', changed = run r in
        let differs = r' <> r in
        let on, off =
          Option.value ~default:(0, 0) (Hashtbl.find_opt flag_counts name)
        in
        Hashtbl.replace flag_counts name
          (if changed then (on + 1, off) else (on, off + 1));
        if changed <> differs then
          QCheck.Test.fail_reportf "%s (%s): %s flagged %b, output differs: %b"
            r.U.r_name state name changed differs)
      passes;
    let r1, _ = Opt.Simplify.run r in
    if not (simplified r1) then
      QCheck.Test.fail_reportf "%s (%s): simplify left something to simplify"
        r.U.r_name state;
    if snd (Opt.Simplify.run r1) then
      QCheck.Test.fail_reportf "%s (%s): simplify changed its own output"
        r.U.r_name state
  in
  check_state "raw" r;
  check_state "r1"
    (Opt.Pipeline.optimize_routine ~removable ~arity_of ~max_rounds:1 r);
  true

let flags_exact (p : U.program) =
  let index = Ucode.Index.of_program p in
  let deletable = Opt.Ipa.deletable_routines index p in
  let removable n = U.String_set.mem n deletable in
  let arity_of n = Ucode.Index.arity index n in
  List.for_all (check_flags ~removable ~arity_of) p.U.p_routines

(* Random control flow over a few registers, as no front end emits it:
   empty blocks, jumps back to the entry, same-target and constant
   branches, dead blocks.  Generated programs rarely give a clean-up a
   step of its own; these do. *)
let gen_cfg_routine : U.routine QCheck.Gen.t =
 fun st ->
  let module G = QCheck.Gen in
  let fresh_site, _ = B.site_counter () in
  let b, params = B.create ~name:"f" ~module_name:"m" ~nparams:1 ~fresh_site () in
  let n = G.int_range 1 7 st in
  let labels = List.init n (fun _ -> B.fresh_label b) in
  let regs = Array.of_list (params @ List.init 3 (fun _ -> B.fresh_reg b)) in
  let reg () = G.oneofa regs st and label () = G.int_bound (n - 1) st in
  List.iter
    (fun l ->
      B.start_block b l;
      for _ = 1 to G.oneofl [ 0; 0; 1; 2 ] st do
        B.emit b
          (G.oneofl
             [ U.Const (reg (), Int64.of_int (G.int_bound 2 st));
               U.Move (reg (), reg ());
               U.Binop (reg (), U.Add, reg (), reg ()) ]
             st)
      done;
      B.seal b
        (match G.int_bound 4 st with
        | 0 -> U.Return (Some (reg ()))
        | 1 | 2 -> U.Jump (label ())
        | _ -> U.Branch (reg (), label (), label ())))
    labels;
  B.finish b

let prop_flags_exact =
  let of_shape sh =
    flags_exact (fst (Minic.Compile.compile_program (Prog_gen.render_shape sh)))
  in
  [ QCheck.Test.make ~count:100 ~name:"changed flag = output differs, tame"
      (Prog_gen.arbitrary_shape Prog_gen.tame_opts) of_shape;
    QCheck.Test.make ~count:100 ~name:"changed flag = output differs, wild"
      (Prog_gen.arbitrary_shape Prog_gen.wild_opts) of_shape;
    QCheck.Test.make ~count:100 ~name:"changed flag = output differs, skewed"
      Prog_gen.arbitrary_skewed_shape of_shape;
    QCheck.Test.make ~count:500 ~name:"changed flag = output differs, random CFGs"
      (QCheck.make ~print:Ucode.Pp.routine_to_string gen_cfg_routine)
      (check_flags ~removable:(fun _ -> false) ~arity_of:(fun _ -> None)) ]

(* Each pass both fired and stayed quiet on some generated state, so
   neither answer of the property above is vacuous. *)
let test_flags_not_vacuous () =
  List.iter
    (fun name ->
      let on, off =
        Option.value ~default:(0, 0) (Hashtbl.find_opt flag_counts name)
      in
      check_bool (name ^ " changed some state") true (on > 0);
      check_bool (name ^ " left some state alone") true (off > 0))
    [ "simplify"; "constprop"; "copyprop"; "licm"; "strength"; "cse"; "dce" ]

(* ------------------------------------------------------------------ *)
(* CSE, copy propagation and the pipeline against references.         *)

(* The two passes as they were written before their state moved to one
   set of tables and register-indexed arrays per routine: fresh
   [Hashtbl]s for every block, polymorphic hash and compare.  The
   passes must agree with them exactly, output and changed flag. *)
module Reference_cse = struct
  type key =
    | Kconst of int64
    | Kfaddr of string
    | Kgaddr of string
    | Kunop of U.unop * U.reg
    | Kbinop of U.binop * U.reg * U.reg
    | Kload of U.reg

  let key_of_instr = function
    | U.Const (_, k) -> Some (Kconst k)
    | U.Faddr (_, n) -> Some (Kfaddr n)
    | U.Gaddr (_, n) -> Some (Kgaddr n)
    | U.Unop (_, op, a) -> Some (Kunop (op, a))
    | U.Binop (_, op, a, b) ->
      (* Normalize commutative operations. *)
      let commutative =
        match op with
        | U.Add | U.Mul | U.And | U.Or | U.Xor | U.Eq | U.Ne -> true
        | _ -> false
      in
      if commutative && a > b then Some (Kbinop (op, b, a)) else Some (Kbinop (op, a, b))
    | U.Move _ | U.Store _ | U.Call _ | U.Load _ -> None

  let key_regs = function
    | Kconst _ | Kfaddr _ | Kgaddr _ -> []
    | Kunop (_, a) -> [ a ]
    | Kbinop (_, a, b) -> [ a; b ]
    | Kload a -> [ a ]

  let run (r : U.routine) : U.routine * bool =
    let changed = ref false in
    let rewrite_block (b : U.block) =
      (* Pure keys and load keys live in separate tables, so a store or
         call clears only the loads.  [users x] lists every key recorded
         with [x] as holder or operand since [x] was last redefined — a
         superset of the entries [x]'s redefinition must remove. *)
      let table : (key, U.reg) Hashtbl.t = Hashtbl.create 16 in
      let loads : (key, U.reg) Hashtbl.t = Hashtbl.create 16 in
      let users : (U.reg, key list) Hashtbl.t = Hashtbl.create 16 in
      let table_of = function Kload _ -> loads | _ -> table in
      let note x k =
        Hashtbl.replace users x
          (k :: Option.value ~default:[] (Hashtbl.find_opt users x))
      in
      let record k holder =
        Hashtbl.replace (table_of k) k holder;
        note holder k;
        List.iter (fun x -> note x k) (key_regs k)
      in
      let find k = Hashtbl.find_opt (table_of k) k in
      let invalidate d =
        match Hashtbl.find_opt users d with
        | None -> ()
        | Some ks ->
          List.iter
            (fun k ->
              match find k with
              | Some holder when holder = d || List.mem d (key_regs k) ->
                Hashtbl.remove (table_of k) k
              | _ -> ())
            ks;
          Hashtbl.remove users d
      in
      let clobber_memory () = Hashtbl.reset loads in
      let rewrite_instr i =
        match i with
        | U.Store _ ->
          clobber_memory ();
          i
        | U.Call _ ->
          clobber_memory ();
          (match U.instr_def i with Some d -> invalidate d | None -> ());
          i
        | U.Load (d, a) -> (
          match find (Kload a) with
          | Some holder when holder <> d ->
            changed := true;
            invalidate d;
            (* Keep [holder] as the canonical copy, unless the key itself
               mentions the just-redefined register. *)
            if a <> d then record (Kload a) holder;
            U.Move (d, holder)
          | _ ->
            invalidate d;
            if d <> a then record (Kload a) d;
            i)
        | _ -> (
          match key_of_instr i with
          | None ->
            (match U.instr_def i with Some d -> invalidate d | None -> ());
            i
          | Some k -> (
            match find k with
            | Some holder ->
              let d = Option.get (U.instr_def i) in
              if holder = d then i
              else begin
                changed := true;
                invalidate d;
                (* Re-register: invalidate may have dropped [k] if it
                   mentions [d]. *)
                if not (List.mem d (key_regs k)) then record k holder;
                U.Move (d, holder)
              end
            | None ->
              let d = Option.get (U.instr_def i) in
              invalidate d;
              if not (List.mem d (key_regs k)) then record k d;
              i))
      in
      { b with U.b_instrs = List.map rewrite_instr b.U.b_instrs }
    in
    let blocks = List.map rewrite_block r.U.r_blocks in
    ({ r with U.r_blocks = blocks }, !changed)
end

module Reference_copyprop = struct
  let run (r : U.routine) : U.routine * bool =
    let changed = ref false in
    let rewrite_block (b : U.block) =
      (* copies d = s: d currently holds the same value as s.  aliases s
         lists every d ever recorded with root s since s was last
         invalidated — a superset of its live aliases. *)
      let copies = Hashtbl.create 16 in
      let aliases = Hashtbl.create 16 in
      let resolve x =
        match Hashtbl.find_opt copies x with Some root -> root | None -> x
      in
      (* A use or terminator register that resolves elsewhere is exactly
         what makes the output differ from the input. *)
      let rewrite_use x =
        let root = resolve x in
        if root <> x then changed := true;
        root
      in
      let invalidate d =
        Hashtbl.remove copies d;
        (* Any alias whose root is d is now stale. *)
        match Hashtbl.find_opt aliases d with
        | None -> ()
        | Some ds ->
          List.iter
            (fun k ->
              match Hashtbl.find_opt copies k with
              | Some root when root = d -> Hashtbl.remove copies k
              | _ -> ())
            ds;
          Hashtbl.remove aliases d
      in
      let record d root =
        Hashtbl.replace copies d root;
        Hashtbl.replace aliases root
          (d :: Option.value ~default:[] (Hashtbl.find_opt aliases root))
      in
      let rewrite_instr i =
        let i' = U.map_instr_uses rewrite_use i in
        (match U.instr_def i' with Some d -> invalidate d | None -> ());
        (match i' with
        | U.Move (d, s) when d <> s -> record d (resolve s)
        | _ -> ());
        i'
      in
      let instrs = List.map rewrite_instr b.U.b_instrs in
      let term = U.map_term_regs rewrite_use b.U.b_term in
      { b with U.b_instrs = instrs; U.b_term = term }
    in
    let blocks = List.map rewrite_block r.U.r_blocks in
    ({ r with U.r_blocks = blocks }, !changed)
end

(* Dead-code elimination as it was before one call cascaded: whole
   rounds, each deciding from its own input's liveness, until a round
   removes nothing (the pass stopped after 50).  The pass must agree
   with it exactly, output and changed flag. *)
module Reference_dce = struct
  (* Element [k]: instruction [k] of [b] defines a register that is not
     live right after it. *)
  let dead_after live (b : U.block) =
    let module S = U.Int_set in
    let after = ref (S.of_list (U.term_uses b.U.b_term)) in
    Opt.Liveness.iter_live_out (fun x -> after := S.add x !after) live b.U.b_id;
    Array.of_list
      (List.rev_map
         (fun i ->
           let dead =
             match U.instr_def i with Some d -> not (S.mem d !after) | None -> false
           in
           (match U.instr_def i with Some d -> after := S.remove d !after | None -> ());
           after := S.union !after (S.of_list (U.instr_uses i));
           dead)
         (List.rev b.U.b_instrs))

  (* The output and the number of rounds that rewrote something. *)
  let run_rounds ?(removable = fun _ -> false) (r : U.routine) : U.routine * int =
    let pass (r : U.routine) =
      let live = Opt.Liveness.compute r in
      let round_changed = ref false in
      let rewrite_block (b : U.block) =
        let dead_after = dead_after live b in
        let drop () = round_changed := true; None in
        let rewrite k i =
          let dead = dead_after.(k) in
          match i with
          | U.Const _ | U.Faddr _ | U.Gaddr _ | U.Unop _ | U.Binop _ | U.Load _ ->
            if dead then drop () else Some i
          | U.Move (d, s) -> if dead || d = s then drop () else Some i
          | U.Store _ -> Some i
          | U.Call ({ c_dst = Some _; c_callee; _ } as c) when dead ->
            let deletable =
              match c_callee with
              | U.Direct n -> removable n
              | U.Indirect _ -> false
            in
            round_changed := true;
            if deletable then None else Some (U.Call { c with c_dst = None })
          | U.Call { c_dst = None; c_callee = U.Direct n; _ } when removable n ->
            drop ()
          | U.Call _ -> Some i
        in
        { b with U.b_instrs = List.filter_map Fun.id (List.mapi rewrite b.U.b_instrs) }
      in
      let r' = { r with U.r_blocks = List.map rewrite_block r.U.r_blocks } in
      (r', !round_changed)
    in
    let rec loop r rounds =
      let r', round_changed = pass r in
      if round_changed then loop r' (rounds + 1) else (r, rounds)
    in
    loop r 0

  let run ?removable r =
    let out, rounds = run_rounds ?removable r in
    (out, rounds > 0)
end

(* The pipeline's rounds as they were before a [simplify] on the
   unchanged output of a quiet [simplify] was skipped: output and
   round count must not move. *)
let reference_optimize (r : U.routine) =
  let any = ref false in
  let run_pass f r =
    let r', changed = f r in
    if changed then any := true;
    r'
  in
  let round r =
    r
    |> run_pass Opt.Simplify.run
    |> run_pass (Opt.Constprop.run ~arity_of:(fun _ -> None))
    |> run_pass Reference_copyprop.run
    |> run_pass Opt.Licm.run
    |> run_pass Opt.Strength.run
    |> run_pass Reference_cse.run
    |> run_pass (Reference_dce.run ~removable:(fun _ -> false))
    |> run_pass Opt.Simplify.run
  in
  let rec loop r rounds =
    if rounds = 4 then (r, rounds)
    else begin
      any := false;
      let r' = round r in
      if !any && r' <> r then loop r' (rounds + 1) else (r', rounds + 1)
    end
  in
  loop r 0

let agrees_with_reference (r : U.routine) =
  let fail name =
    QCheck.Test.fail_reportf "%s on %s: differs from the reference\n%s" name
      r.U.r_name (Ucode.Pp.routine_to_string r)
  in
  List.iter
    (fun (name, run, reference) -> if run r <> reference r then fail name)
    [ ("cse", Opt.Cse.run, Reference_cse.run);
      ("copyprop", Opt.Copyprop.run, Reference_copyprop.run) ];
  let stats = Opt.Pipeline.make_stats () in
  let out = Opt.Pipeline.optimize_routine ~stats r in
  if (out, stats.Opt.Pipeline.rounds) <> reference_optimize r
  then fail "optimize_routine"

(* Every routine of a generated program, raw and after one pipeline
   round; random CFGs as generated. *)
let prop_matches_reference =
  let of_shape sh =
    let p = fst (Minic.Compile.compile_program (Prog_gen.render_shape sh)) in
    List.iter
      (fun r ->
        agrees_with_reference r;
        agrees_with_reference (Opt.Pipeline.optimize_routine ~max_rounds:1 r))
      p.U.p_routines;
    true
  in
  [ QCheck.Test.make ~count:100 ~name:"cse, copyprop, pipeline = reference, tame"
      (Prog_gen.arbitrary_shape Prog_gen.tame_opts) of_shape;
    QCheck.Test.make ~count:100 ~name:"cse, copyprop, pipeline = reference, wild"
      (Prog_gen.arbitrary_shape Prog_gen.wild_opts) of_shape;
    QCheck.Test.make ~count:100 ~name:"cse, copyprop, pipeline = reference, skewed"
      Prog_gen.arbitrary_skewed_shape of_shape;
    QCheck.Test.make ~count:500
      ~name:"cse, copyprop, pipeline = reference, random CFGs"
      (QCheck.make ~print:Ucode.Pp.routine_to_string gen_cfg_routine)
      (fun r -> agrees_with_reference r; true) ]

(* Dead-code elimination against its round loop, with the program
   facts the pipeline passes.  An unchanged routine comes back as the
   input itself.  [dce_cascades] counts the inputs that took the loop
   more than one rewriting round. *)
let dce_cascades = ref 0

let dce_agrees ~removable (r : U.routine) =
  let out, changed = Opt.Dce.run ~removable r in
  let reference, rounds = Reference_dce.run_rounds ~removable r in
  if rounds > 1 then incr dce_cascades;
  if (out, changed) <> (reference, rounds > 0) then
    QCheck.Test.fail_reportf "dce on %s: differs from the round loop\n%s" r.U.r_name
      (Ucode.Pp.routine_to_string r);
  if (not changed) && out != r then
    QCheck.Test.fail_reportf "dce on %s: rebuilt an unchanged routine" r.U.r_name

let prop_dce_matches_reference =
  let of_shape sh =
    let p = fst (Minic.Compile.compile_program (Prog_gen.render_shape sh)) in
    let deletable = Opt.Ipa.deletable_routines (Ucode.Index.of_program p) p in
    let removable n = U.String_set.mem n deletable in
    List.iter
      (fun r ->
        dce_agrees ~removable r;
        dce_agrees ~removable (Opt.Pipeline.optimize_routine ~removable ~max_rounds:1 r))
      p.U.p_routines;
    true
  in
  [ QCheck.Test.make ~count:100 ~name:"dce = round loop, tame"
      (Prog_gen.arbitrary_shape Prog_gen.tame_opts) of_shape;
    QCheck.Test.make ~count:100 ~name:"dce = round loop, wild"
      (Prog_gen.arbitrary_shape Prog_gen.wild_opts) of_shape;
    QCheck.Test.make ~count:100 ~name:"dce = round loop, skewed"
      Prog_gen.arbitrary_skewed_shape of_shape;
    QCheck.Test.make ~count:500 ~name:"dce = round loop, random CFGs"
      (QCheck.make ~print:Ucode.Pp.routine_to_string gen_cfg_routine)
      (fun r -> dce_agrees ~removable:(fun _ -> false) r; true) ]

(* Some input above needed a second removing round, so the property
   saw dead code that only a cascade removes. *)
let test_dce_cascades_not_vacuous () =
  check_bool "a cascade was checked" true (!dce_cascades > 0)

(* A chain of 60 dead instructions, 30 in each of two blocks, each
   feeding the next: one round removes only the chain's tail, so the
   round loop's old bound of 50 stopped 10 short.  The pass removes all
   of it. *)
let test_dce_long_chain () =
  let fresh_site, _ = B.site_counter () in
  let b, params = B.create ~name:"chain" ~module_name:"m" ~nparams:1 ~fresh_site () in
  let l0 = B.fresh_label b and l1 = B.fresh_label b in
  let x = ref (List.hd params) in
  let link () = x := B.binop b U.Add !x !x in
  B.start_block b l0;
  for _ = 1 to 30 do link () done;
  B.seal b (U.Jump l1);
  B.start_block b l1;
  for _ = 1 to 30 do link () done;
  B.seal b (U.Return None);
  let r = B.finish b in
  check_int "chain length" 60 (List.length (instrs_of r));
  let out, changed = Opt.Dce.run r in
  check_bool "changed" true changed;
  check_int "all removed" 0 (List.length (instrs_of out));
  check_bool "= the unbounded round loop" true ((out, changed) = Reference_dce.run r)

(* ------------------------------------------------------------------ *)
(* Loop-invariant code motion.                                         *)

let test_licm_hoists_global_address () =
  let src = {|
    global table[64];
    global bias = 5;
    func main() {
      var s = 0;
      for (var i = 0; i < 50; i = i + 1) {
        s = s + table[i & 63] + bias;
      }
      print_int(s);
      return 0;
    }
  |} in
  let p = compile src in
  let p' = Opt.Pipeline.optimize_program p in
  check_string "semantics" (run_program p) (run_program p');
  (* The address computations left inside any loop should be gone:
     count Gaddr instructions in loop blocks of main. *)
  let main = routine_named p' "main" in
  let loops = Opt.Licm.natural_loops main in
  let in_any_loop lbl =
    List.exists (fun (l : Opt.Licm.loop) -> U.Int_set.mem lbl l.body) loops
  in
  let gaddr_in_loops =
    List.fold_left
      (fun acc (b : U.block) ->
        if in_any_loop b.U.b_id then
          acc
          + List.length
              (List.filter (function U.Gaddr _ -> true | _ -> false) b.U.b_instrs)
        else acc)
      0 main.U.r_blocks
  in
  check_int "no gaddr left in loops" 0 gaddr_in_loops;
  (* And it pays in executed instructions. *)
  let before = (Interp.run p).Interp.steps in
  let after = (Interp.run p').Interp.steps in
  check_bool "fewer steps" true (after < before)

let test_licm_keeps_trapping_ops () =
  (* A division that would trap must not be hoisted above the guard:
     this loop never executes, so the program must not trap. *)
  let src = {|
    global zero = 0;
    func main() {
      var s = 0;
      var n = 0;
      for (var i = 0; i < n; i = i + 1) {
        s = s + 7 / zero;
      }
      print_int(s);
      return 0;
    }
  |} in
  let p = compile src in
  let p' = Opt.Pipeline.optimize_program p in
  check_string "no trap introduced" "0\n" (run_program p')

let test_licm_respects_redefinition () =
  (* x is redefined in the loop; x+1 is not invariant and must keep its
     per-iteration value. *)
  let src = {|
    global g = 3;
    func main() {
      var x = g;
      var s = 0;
      for (var i = 0; i < 5; i = i + 1) {
        s = s + x * 2;
        x = x + 1;
      }
      print_int(s);
      return 0;
    }
  |} in
  let p = compile src in
  let p' = Opt.Pipeline.optimize_program p in
  (* 3+4+5+6+7 = 25, doubled = 50 *)
  check_string "loop-varying value intact" "50\n" (run_program p')

let test_licm_dominators () =
  let src = {|
    func main() {
      var s = 0;
      for (var i = 0; i < 3; i = i + 1) { s = s + i; }
      print_int(s);
      return 0;
    }
  |} in
  let p = compile src in
  let main = routine_named p "main" in
  let dom = Opt.Licm.dominators main in
  let entry = (U.entry_block main).U.b_id in
  (* The entry dominates every block. *)
  U.Int_map.iter
    (fun _ ds -> check_bool "entry dominates all" true (U.Int_set.mem entry ds))
    dom;
  (* Exactly one natural loop here. *)
  check_int "one loop" 1 (List.length (Opt.Licm.natural_loops main))

(* ------------------------------------------------------------------ *)
(* Strength reduction.                                                 *)

let test_strength_mul_to_shift () =
  let src = {|
    global g = 5;
    func main() {
      var x = g;
      print_int(x * 8);
      print_int(16 * x);
      print_int(x * 7);
      print_int(x * 1);
      print_int(x * (0 - 8));
      return 0;
    }
  |} in
  let _, p', main = optimize_main src in
  (* x*8 and 16*x become shifts; x*7 and x*(-8) keep multiplies
     (x*1 folds away entirely). *)
  check_int "two multiplies remain" 2
    (count_instrs (function U.Binop (_, U.Mul, _, _) -> true | _ -> false) main);
  check_bool "shifts appeared" true
    (count_instrs (function U.Binop (_, U.Shl, _, _) -> true | _ -> false) main
     >= 2);
  check_string "semantics" "40
80
35
5
-40
" (run_program p')

let test_strength_exact_on_negatives () =
  let src = {|
    func main() {
      var x = 0 - 9223372036854775807 - 1;  // min_int
      print_int(x * 4);
      var y = 0 - 3;
      print_int(y * 16);
      return 0;
    }
  |} in
  let p = compile src in
  let before = run_program p in
  let p' = Opt.Pipeline.optimize_program p in
  check_string "wraparound identical" before (run_program p')

let test_strength_pays_off_in_cycles () =
  (* The machine charges multiplier latency; a mul-by-8 loop must be
     faster after the rewrite. *)
  let src = {|
    global sink;
    func main() {
      var s = 1;
      for (var i = 1; i < 2000; i = i + 1) { s = (s + i) * 8; sink = s; }
      print_int(s & 1048575);
      return 0;
    }
  |} in
  let p = compile src in
  let raw = Machine.Sim.run_program p in
  let p' = Opt.Pipeline.optimize_program p in
  let opt = Machine.Sim.run_program p' in
  check_string "same output" raw.Machine.Sim.output opt.Machine.Sim.output;
  check_bool "cycles drop" true
    (opt.Machine.Sim.metrics.Machine.Metrics.cycles
    < raw.Machine.Sim.metrics.Machine.Metrics.cycles)

(* ------------------------------------------------------------------ *)
(* Liveness.                                                           *)

let test_liveness_simple () =
  let fresh_site, _ = B.site_counter () in
  let b, params = B.create ~name:"f" ~module_name:"m" ~nparams:1 ~fresh_site () in
  let p0 = List.hd params in
  let l0 = B.fresh_label b in
  B.start_block b l0;
  let k = B.const b 1L in
  let s = B.binop b U.Add p0 k in
  B.seal b (U.Return (Some s));
  let r = B.finish b in
  let live = Opt.Liveness.compute r in
  check_bool "param live in" true (Opt.Liveness.live_in live 0 p0);
  check_bool "temp not live in" false (Opt.Liveness.live_in live 0 s)

let test_liveness_loop () =
  (* Value defined before a loop and used inside must be live around
     the back edge. *)
  let src = {|
    func main() {
      var total = 0;
      var step = 3;
      for (var i = 0; i < 4; i = i + 1) { total = total + step; }
      print_int(total);
      return 0;
    }
  |} in
  let p = compile src in
  let main = routine_named p "main" in
  let live = Opt.Liveness.compute main in
  (* Find the loop body block: it reads at least two registers that are
     live-in; sanity-check liveness is non-trivial there. *)
  let nonempty =
    List.exists
      (fun (b : U.block) ->
        let n = ref 0 in
        Opt.Liveness.iter_live_in (fun _ -> incr n) live b.U.b_id;
        !n >= 2)
      main.U.r_blocks
  in
  check_bool "loop carries values" true nonempty

let test_live_across_calls () =
  let src = {|
    func g(x) { return x; }
    func main() {
      var keep = 5;
      var r = g(1);
      print_int(keep + r);
      return 0;
    }
  |} in
  let p = compile src in
  let main = routine_named p "main" in
  let across = Opt.Liveness.live_across_calls main in
  (* At the call to g, [keep]'s register is live across. *)
  let any_live =
    U.Int_map.exists (fun _ live -> not (U.Int_set.is_empty live)) across
  in
  check_bool "something lives across the call" true any_live

(* A register at or above [r_next_reg] is refused with an error naming
   the routine and the register — never read from a neighbouring bit
   of the dense state. *)
let test_register_out_of_range () =
  let r =
    { U.r_name = "wide_reg"; r_module = "m"; r_params = [ 0 ];
      r_blocks =
        [ { U.b_id = 0; b_instrs = [ U.Binop (5, U.Add, 0, 0) ];
            b_term = U.Return (Some 5) } ];
      r_next_reg = 3; r_next_label = 1; r_attrs = U.default_attrs;
      r_linkage = U.Exported; r_origin = U.From_source }
  in
  let refused ?(reg = "r5") name f =
    match f () with
    | () -> Alcotest.failf "%s accepted register %s >= r_next_reg" name reg
    | exception Invalid_argument m ->
      let mentions s =
        let n = String.length s in
        let rec go i = i + n <= String.length m && (String.sub m i n = s || go (i + 1)) in
        go 0
      in
      check_bool (name ^ " names the routine and register: " ^ m) true
        (mentions "wide_reg" && mentions reg)
  in
  refused "Liveness.compute" (fun () -> ignore (Opt.Liveness.compute r));
  refused "Liveness.live_across_calls" (fun () ->
      ignore (Opt.Liveness.live_across_calls r));
  refused "Dce.run" (fun () -> ignore (Opt.Dce.run r));
  refused "Constprop.run" (fun () -> ignore (Opt.Constprop.run r));
  refused "Cse.run" (fun () -> ignore (Opt.Cse.run r));
  refused "Copyprop.run" (fun () -> ignore (Opt.Copyprop.run r));
  let valid = { r with U.r_next_reg = 6 } in
  let live = Opt.Liveness.compute valid in
  refused ~reg:"r6" "Liveness.live_in" (fun () -> ignore (Opt.Liveness.live_in live 0 6));
  (* Dce.run checks every register before it removes anything, in
     Liveness.compute's order, so dead code is refused too and the
     first register named is the same: the parameters, then per block
     the terminator, then the instructions last to first, each
     definition before its uses. *)
  let dead = { r with U.r_blocks = [ { U.b_id = 0; b_instrs = [ U.Const (5, 1L) ];
                                       b_term = U.Return None } ] } in
  refused "Dce.run on dead code" (fun () -> ignore (Opt.Dce.run dead));
  (* Constprop checks each instruction's uses before its definition. *)
  let use_and_def =
    { r with U.r_blocks = [ { U.b_id = 0; b_instrs = [ U.Binop (8, U.Add, 7, 0) ];
                              b_term = U.Return None } ] } in
  refused ~reg:"r7" "Constprop.run on a bad use and def" (fun () ->
      ignore (Opt.Constprop.run use_and_def));
  let message f = match f () with _ -> None | exception Invalid_argument m -> Some m in
  List.iter
    (fun (what, params, blocks) ->
      let r = { r with U.r_params = params; r_blocks = blocks } in
      Alcotest.(check (option string)) ("Dce.run refuses as Liveness.compute: " ^ what)
        (message (fun () -> ignore (Opt.Liveness.compute r)))
        (message (fun () -> ignore (Opt.Dce.run r))))
    [ ( "parameter first", [ 7 ],
        [ { U.b_id = 0; b_instrs = [ U.Const (8, 1L) ]; b_term = U.Return (Some 9) } ] );
      ( "terminator before instructions", [ 0 ],
        [ { U.b_id = 0; b_instrs = [ U.Const (8, 1L) ]; b_term = U.Return (Some 9) } ] );
      ( "last instruction first", [ 0 ],
        [ { U.b_id = 0; b_instrs = [ U.Const (8, 1L); U.Move (1, 7) ];
            b_term = U.Return None } ] );
      ( "definition before uses", [ 0 ],
        [ { U.b_id = 0; b_instrs = [ U.Binop (9, U.Add, 8, 7) ]; b_term = U.Return None } ] );
      ( "first block first", [ 0 ],
        [ { U.b_id = 0; b_instrs = [ U.Const (8, 1L) ]; b_term = U.Jump 1 };
          { U.b_id = 1; b_instrs = []; b_term = U.Return (Some 9) } ] ) ]

(* ------------------------------------------------------------------ *)
(* Pipeline-level sanity on all workloads.                             *)

let test_pipeline_preserves_workloads () =
  List.iter
    (fun b ->
      let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
      let before = (Interp.run p).Interp.output in
      let p' = Opt.Pipeline.optimize_program p in
      (match Ucode.Validate.check_program p' with
      | [] -> ()
      | errors -> Alcotest.fail (Ucode.Validate.errors_to_string errors));
      let after = (Interp.run p').Interp.output in
      check_string ("preserves " ^ b.Workloads.Suite.b_name) before after;
      check_bool "does not grow" true
        (Ucode.Size.program_size p' <= Ucode.Size.program_size p))
    Workloads.Suite.all

let () =
  Alcotest.run "opt"
    [ ( "constprop",
        [ Alcotest.test_case "folds" `Quick test_constprop_folds;
          Alcotest.test_case "folds branch" `Quick test_constprop_folds_branch;
          Alcotest.test_case "devirtualizes" `Quick test_constprop_devirtualizes;
          Alcotest.test_case "keeps div trap" `Quick
            test_constprop_keeps_div_by_zero;
          Alcotest.test_case "sound join" `Quick test_constprop_join_is_sound;
          Alcotest.test_case "identities" `Quick test_algebraic_identities ] );
      ( "cse",
        [ Alcotest.test_case "dedups loads" `Quick test_cse_dedups;
          Alcotest.test_case "store invalidates" `Quick test_cse_store_invalidates;
          Alcotest.test_case "call invalidates" `Quick test_cse_call_invalidates ] );
      ( "dce-ipa",
        [ Alcotest.test_case "removes dead" `Quick test_dce_removes_dead_code;
          Alcotest.test_case "keeps impure" `Quick test_dce_keeps_impure_calls;
          Alcotest.test_case "deletable set" `Quick test_ipa_deletable;
          Alcotest.test_case "deletes stub calls" `Quick test_ipa_deletes_stub_calls ] );
      ( "deletable",
        List.map QCheck_alcotest.to_alcotest
          (prop_deletable_call_graphs :: prop_deletable_shapes)
        @ [ Alcotest.test_case "not vacuous" `Quick test_deletable_not_vacuous;
            Alcotest.test_case "workloads" `Quick test_deletable_workloads ] );
      ( "memo",
        [ Alcotest.test_case "reuses converged routines" `Quick
            test_memo_reuses_converged;
          Alcotest.test_case "replays program facts" `Quick
            test_memo_replays_facts;
          Alcotest.test_case "skips capped runs" `Quick
            test_memo_skips_capped_runs ] );
      ( "simplify",
        [ Alcotest.test_case "unreachable" `Quick test_simplify_unreachable;
          Alcotest.test_case "merges chains" `Quick test_simplify_merges_chains;
          Alcotest.test_case "trivial branch" `Quick
            test_simplify_branch_same_target;
          Alcotest.test_case "idempotent" `Quick
            test_simplify_idempotent_on_workload ] );
      ( "flags",
        List.map QCheck_alcotest.to_alcotest prop_flags_exact
        @ [ Alcotest.test_case "not vacuous" `Quick test_flags_not_vacuous ] );
      ("reference", List.map QCheck_alcotest.to_alcotest prop_matches_reference);
      ( "dce",
        List.map QCheck_alcotest.to_alcotest prop_dce_matches_reference
        @ [ Alcotest.test_case "not vacuous" `Quick test_dce_cascades_not_vacuous;
            Alcotest.test_case "dead chain over two blocks" `Quick
              test_dce_long_chain ] );
      ( "licm",
        [ Alcotest.test_case "hoists global address" `Quick
            test_licm_hoists_global_address;
          Alcotest.test_case "keeps trapping ops" `Quick
            test_licm_keeps_trapping_ops;
          Alcotest.test_case "respects redefinition" `Quick
            test_licm_respects_redefinition;
          Alcotest.test_case "dominators" `Quick test_licm_dominators ] );
      ( "strength",
        [ Alcotest.test_case "mul to shift" `Quick test_strength_mul_to_shift;
          Alcotest.test_case "exact on negatives" `Quick
            test_strength_exact_on_negatives;
          Alcotest.test_case "pays off" `Quick test_strength_pays_off_in_cycles ] );
      ( "liveness",
        [ Alcotest.test_case "simple" `Quick test_liveness_simple;
          Alcotest.test_case "loop" `Quick test_liveness_loop;
          Alcotest.test_case "across calls" `Quick test_live_across_calls;
          Alcotest.test_case "register out of range" `Quick
            test_register_out_of_range ] );
      ( "pipeline",
        [ Alcotest.test_case "preserves workloads" `Slow
            test_pipeline_preserves_workloads ] ) ]
