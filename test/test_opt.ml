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
    func main() { return 0; }
  |} in
  let p = compile src in
  let deletable = Opt.Ipa.deletable_routines (Ucode.Callgraph.build p) in
  let has n = U.String_set.mem n deletable in
  check_bool "stub1 deletable" true (has "stub1");
  check_bool "stub2 deletable (transitively)" true (has "stub2");
  check_bool "looper not (loop)" false (has "looper");
  check_bool "storer not (store)" false (has "storer");
  check_bool "recur not (recursion)" false (has "recur")

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
  check_bool "param live in" true
    (U.Int_set.mem p0 (Opt.Liveness.live_in live 0));
  check_bool "temp not live in" false
    (U.Int_set.mem s (Opt.Liveness.live_in live 0))

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
        U.Int_set.cardinal (Opt.Liveness.live_in live b.U.b_id) >= 2)
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
      ( "simplify",
        [ Alcotest.test_case "unreachable" `Quick test_simplify_unreachable;
          Alcotest.test_case "merges chains" `Quick test_simplify_merges_chains;
          Alcotest.test_case "trivial branch" `Quick
            test_simplify_branch_same_target;
          Alcotest.test_case "idempotent" `Quick
            test_simplify_idempotent_on_workload ] );
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
          Alcotest.test_case "across calls" `Quick test_live_across_calls ] );
      ( "pipeline",
        [ Alcotest.test_case "preserves workloads" `Slow
            test_pipeline_preserves_workloads ] ) ]
