(* Tests for the HLO core: the budget, the summaries P(R)/S(E), clone
   specifications, the cloning and inlining passes, and the multi-pass
   driver — including the staged devirtualization chain the paper
   highlights. *)

module U = Ucode.Types

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 0.0001))

let compile src = Minic.Compile.compile_string src

let compile2 (m1, s1) (m2, s2) =
  fst
    (Minic.Compile.compile_program
       [ Minic.Compile.source ~module_name:m1 s1;
         Minic.Compile.source ~module_name:m2 s2 ])

let validated_config = { Hlo.Config.default with Hlo.Config.validate = true }

let run_hlo ?(config = validated_config) ?(with_profile = true) p =
  let profile =
    if with_profile then (Interp.train p).Interp.profile else Ucode.Profile.empty
  in
  Hlo.Driver.run ~config ~profile p

(* Run HLO and assert the program still prints the same thing. *)
let hlo_preserves ?config ?with_profile p =
  let before = (Interp.run p).Interp.output in
  let res = run_hlo ?config ?with_profile p in
  let after = (Interp.run res.Hlo.Driver.program).Interp.output in
  check_string "HLO preserves output" before after;
  res

(* ------------------------------------------------------------------ *)
(* Budget.                                                             *)

let test_budget_math () =
  let config =
    { Hlo.Config.default with Hlo.Config.budget_percent = 50.0;
      staging = [ 0.5; 1.0 ] }
  in
  let b = Hlo.Budget.create config ~initial_cost:1000.0 in
  check_float "allowance" 500.0 b.Hlo.Budget.allowance;
  check_float "stage 0" 250.0 (Hlo.Budget.stage_allowance b ~pass:0);
  check_float "stage 1" 500.0 (Hlo.Budget.stage_allowance b ~pass:1);
  check_float "stage beyond" 500.0 (Hlo.Budget.stage_allowance b ~pass:7);
  check_bool "can afford within" true (Hlo.Budget.can_afford b ~pass:0 200.0);
  check_bool "cannot afford beyond stage" false
    (Hlo.Budget.can_afford b ~pass:0 300.0);
  Hlo.Budget.charge b 200.0;
  check_float "remaining stage 0" 50.0 (Hlo.Budget.remaining b ~pass:0);
  check_bool "not exhausted" false (Hlo.Budget.exhausted b);
  Hlo.Budget.charge b 300.0;
  check_bool "exhausted" true (Hlo.Budget.exhausted b);
  Hlo.Budget.recalibrate b ~measured_cost:1100.0;
  check_float "recalibrated spend" 100.0 b.Hlo.Budget.spent;
  Hlo.Budget.recalibrate b ~measured_cost:900.0;
  check_float "shrinkage clamps at zero" 0.0 b.Hlo.Budget.spent

let test_budget_empty_staging_rejected () =
  let config = { Hlo.Config.default with Hlo.Config.staging = [] } in
  Alcotest.check_raises "empty staging"
    (Invalid_argument "Budget.create: staging must be nonempty") (fun () ->
      ignore (Hlo.Budget.create config ~initial_cost:10.0))

(* Every way a staging schedule can be malformed is rejected at
   construction, with the error naming the offending value. *)
let test_budget_bad_staging_rejected () =
  let rejects what staging =
    let config = { Hlo.Config.default with Hlo.Config.staging = staging } in
    match Hlo.Budget.create config ~initial_cost:10.0 with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument msg ->
      check_bool (what ^ ": message is prefixed") true
        (String.length msg > String.length "Budget.create: "
        && String.sub msg 0 15 = "Budget.create: ")
  in
  rejects "decreasing" [ 0.5; 0.25; 1.0 ];
  rejects "not ending at 1.0" [ 0.25; 0.5 ];
  rejects "above 1.0" [ 0.5; 1.5; 1.0 ];
  rejects "negative" [ -0.25; 1.0 ];
  rejects "nan" [ Float.nan; 1.0 ];
  (* and the same schedules fail at the flag parser *)
  List.iter
    (fun s ->
      match Policy.of_flags [ "--staging"; s ] with
      | Ok _ -> Alcotest.failf "--staging accepted %S" s
      | Error _ -> ())
    [ "0.5,0.25,1"; "0.25,0.5"; "nope"; "" ];
  match Policy.of_flags [ "--staging"; "0.25, 0.5 ,1" ] with
  | Ok { Policy.staging = [ 0.25; 0.5; 1.0 ]; _ } -> ()
  | _ -> Alcotest.fail "--staging rejected a good schedule"

(* ------------------------------------------------------------------ *)
(* Summaries.                                                          *)

let test_param_usage_weights () =
  let src = {|
    func f(cond, callee, unused, addr) {
      if (cond) { return callee(addr[0]); }
      return 0;
    }
    func main() { return 0; }
  |} in
  let p = compile src in
  let f = U.find_routine_exn p "f" in
  let usage =
    Hlo.Summaries.param_usage ~config:Hlo.Config.default
      ~profile:Ucode.Profile.empty f
  in
  let w = usage.Hlo.Summaries.pu_weights in
  check_bool "cond has weight (branch)" true (w.(0) > 0.0);
  check_bool "callee weight highest (indirect)" true
    (w.(1) > w.(0) && w.(1) > w.(3));
  check_float "unused param has no weight" 0.0 w.(2);
  check_bool "addr has memory weight" true (w.(3) > 0.0);
  check_bool "indirect flag" true usage.Hlo.Summaries.pu_indirect.(1);
  check_bool "no indirect flag on cond" false usage.Hlo.Summaries.pu_indirect.(0)

let test_edge_contexts () =
  let src = {|
    func g(a, b) { return a + b; }
    func main(x) {
      g(7, x);
      g(x, 7);
      return 0;
    }
  |} in
  let p = compile src in
  let main = U.find_routine_exn p "main" in
  let contexts = Hlo.Summaries.edge_contexts main in
  let values =
    U.Int_map.bindings contexts |> List.map snd
  in
  (match values with
  | [ [ Hlo.Summaries.Cconst 7L; Hlo.Summaries.Cunknown ];
      [ Hlo.Summaries.Cunknown; Hlo.Summaries.Cconst 7L ] ] -> ()
  | _ -> Alcotest.fail "unexpected calling contexts")

let test_blocks_in_cycles () =
  let src = {|
    func main() {
      var s = 0;
      for (var i = 0; i < 3; i = i + 1) { s = s + i; }
      print_int(s);
      return 0;
    }
  |} in
  let p = compile src in
  let main = U.find_routine_exn p "main" in
  let cyc = Hlo.Summaries.blocks_in_cycles main in
  check_bool "some blocks cycle" true (not (U.Int_set.is_empty cyc));
  check_bool "entry does not cycle" false
    (U.Int_set.mem (U.entry_block main).U.b_id cyc)

(* ------------------------------------------------------------------ *)
(* Clone specs.                                                        *)

let spec_fixture () =
  let src = {|
    func poly(mode, x) {
      if (mode == 0) { return x + 1; }
      return x * 2;
    }
    func main() {
      print_int(poly(0, 5));
      print_int(poly(0, 6));
      print_int(poly(1, 7));
      return 0;
    }
  |} in
  compile src

let test_intersect_and_match () =
  let p = spec_fixture () in
  let poly = U.find_routine_exn p "poly" in
  let usage =
    Hlo.Summaries.param_usage ~config:Hlo.Config.default
      ~profile:Ucode.Profile.empty poly
  in
  let ctx = [ Hlo.Summaries.Cconst 0L; Hlo.Summaries.Cunknown ] in
  (match Hlo.Clone_spec.intersect ~callee:poly ~context:ctx ~usage with
  | Some spec ->
    check_string "spec key" "poly(#0=0)" (Hlo.Clone_spec.key spec);
    check_bool "same context matches" true (Hlo.Clone_spec.matches ctx spec);
    check_bool "richer context matches" true
      (Hlo.Clone_spec.matches
         [ Hlo.Summaries.Cconst 0L; Hlo.Summaries.Cconst 9L ]
         spec);
    check_bool "different const does not" false
      (Hlo.Clone_spec.matches
         [ Hlo.Summaries.Cconst 1L; Hlo.Summaries.Cunknown ]
         spec);
    check_bool "unknown does not" false
      (Hlo.Clone_spec.matches
         [ Hlo.Summaries.Cunknown; Hlo.Summaries.Cunknown ]
         spec)
  | None -> Alcotest.fail "expected a spec");
  (* No interesting info -> no spec. *)
  check_bool "all unknown yields none" true
    (Hlo.Clone_spec.intersect ~callee:poly
       ~context:[ Hlo.Summaries.Cunknown; Hlo.Summaries.Cunknown ]
       ~usage
    = None);
  (* Arity-mismatched context: illegal site, no spec. *)
  check_bool "arity mismatch yields none" true
    (Hlo.Clone_spec.intersect ~callee:poly ~context:[ Hlo.Summaries.Cconst 0L ]
       ~usage
    = None)

let test_make_clone_shape () =
  let p = spec_fixture () in
  let poly = U.find_routine_exn p "poly" in
  let usage =
    Hlo.Summaries.param_usage ~config:Hlo.Config.default
      ~profile:Ucode.Profile.empty poly
  in
  let spec =
    Option.get
      (Hlo.Clone_spec.intersect ~callee:poly
         ~context:[ Hlo.Summaries.Cconst 0L; Hlo.Summaries.Cunknown ]
         ~usage)
  in
  let next = ref 1000 in
  let fresh () = let s = !next in incr next; s in
  let clone, site_map =
    Hlo.Clone_spec.make_clone ~callee:poly ~clone_name:"poly_c" ~fresh_site:fresh
      spec
  in
  check_int "one param dropped" 1 (List.length clone.U.r_params);
  check_bool "module-local" true (clone.U.r_linkage = U.Module_local);
  check_bool "records origin" true (clone.U.r_origin = U.Clone_of "poly");
  check_int "no call sites in poly" 0 (List.length site_map);
  (* The entry block starts with the constant initializer. *)
  (match (U.entry_block clone).U.b_instrs with
  | U.Const (r, 0L) :: _ ->
    check_bool "init targets the dropped formal" true
      (not (List.mem r clone.U.r_params))
  | _ -> Alcotest.fail "missing constant initializer");
  (* Retargeting a call drops the bound actual. *)
  let call =
    { U.c_dst = Some 9; c_callee = U.Direct "poly"; c_args = [ 4; 5 ];
      c_site = 3 }
  in
  let call' = Hlo.Clone_spec.retarget_call spec ~clone_name:"poly_c" call in
  check_bool "retargeted" true (call'.U.c_callee = U.Direct "poly_c");
  Alcotest.(check (list int)) "args filtered" [ 5 ] call'.U.c_args

(* ------------------------------------------------------------------ *)
(* Cloner.                                                             *)

let test_cloner_creates_groups () =
  let p = spec_fixture () in
  let res = hlo_preserves ~config:{ validated_config with
    Hlo.Config.enable_inlining = false } p in
  let report = res.Hlo.Driver.report in
  check_bool "clones created" true (report.Hlo.Report.clones_created >= 1);
  (* Both poly(0, _) sites share one clone: replacements > clones. *)
  check_bool "group shared" true
    (report.Hlo.Report.clone_replacements > report.Hlo.Report.clones_created
    || report.Hlo.Report.clone_replacements >= 2)

let test_cloner_respects_noclone () =
  let src = {|
    noclone func poly(mode, x) {
      if (mode == 0) { return x + 1; }
      return x * 2;
    }
    func main() { print_int(poly(0, 5)); return 0; }
  |} in
  let res =
    hlo_preserves
      ~config:{ validated_config with Hlo.Config.enable_inlining = false }
      (compile src)
  in
  check_int "no clones" 0 res.Hlo.Driver.report.Hlo.Report.clones_created

let test_cloner_respects_varargs () =
  let src = {|
    varargs func v(mode) { return mode; }
    func main() { print_int(v(3)); return 0; }
  |} in
  let res =
    hlo_preserves
      ~config:{ validated_config with Hlo.Config.enable_inlining = false }
      (compile src)
  in
  check_int "no clones of varargs" 0
    res.Hlo.Driver.report.Hlo.Report.clones_created

let test_clone_database_reuse () =
  (* Two passes discover the same spec; the clone must be reused, not
     duplicated: clones_created stays 1 even though replacements grow. *)
  let src = {|
    func leaf(mode, x) {
      if (mode == 0) { return x + 1; }
      return x * 2;
    }
    func wrap(x) { return leaf(0, x); }
    func main() {
      var s = 0;
      for (var i = 0; i < 50; i = i + 1) {
        s = s + leaf(0, i) + wrap(i);
      }
      print_int(s);
      return 0;
    }
  |} in
  let res = hlo_preserves (compile src) in
  let report = res.Hlo.Driver.report in
  (* All leaf(0,_) spec instances share one clone name. *)
  let clones =
    List.filter
      (fun (r : U.routine) ->
        match r.U.r_origin with U.Clone_of "leaf" -> true | _ -> false)
      res.Hlo.Driver.program.U.p_routines
  in
  check_bool "at most one live leaf clone" true (List.length clones <= 1);
  check_bool "some cloning happened" true (report.Hlo.Report.clone_replacements >= 1)

(* ------------------------------------------------------------------ *)
(* Inliner.                                                            *)

let test_inliner_flattens () =
  let src = {|
    func add1(x) { return x + 1; }
    func main() {
      var s = 0;
      for (var i = 0; i < 100; i = i + 1) { s = add1(s); }
      print_int(s);
      return 0;
    }
  |} in
  let p = compile src in
  let res = hlo_preserves p in
  (* The hot call disappears from main. *)
  let main = U.find_routine_exn res.Hlo.Driver.program "main" in
  let remaining =
    List.length
      (List.filter
         (fun (_, c) -> c.U.c_callee = U.Direct "add1")
         (U.calls_of_routine main))
  in
  check_int "hot call inlined" 0 remaining;
  check_bool "report counted it" true (res.Hlo.Driver.report.Hlo.Report.inlines >= 1)

let screen_fixture attr =
  Printf.sprintf
    {| %s func callee(x) { return x + 1; }
       func main() {
         var s = 0;
         for (var i = 0; i < 100; i = i + 1) { s = callee(s); }
         print_int(s);
         return 0;
       } |}
    attr

let test_inliner_legality_screen () =
  List.iter
    (fun attr ->
      let res = hlo_preserves (compile (screen_fixture attr)) in
      let main = U.find_routine_exn res.Hlo.Driver.program "main" in
      let still_there =
        List.exists
          (fun (_, c) -> c.U.c_callee = U.Direct "callee")
          (U.calls_of_routine main)
      in
      check_bool (attr ^ " blocks inlining") true still_there)
    [ "noinline"; "varargs"; "alloca"; "fprelaxed" ]

let test_inliner_arity_mismatch_blocked () =
  let src = {|
    func two(a, b) { return a + b; }
    func main() {
      var s = 0;
      for (var i = 0; i < 50; i = i + 1) { s = s + two(i); }
      print_int(s);
      return 0;
    }
  |} in
  let res = hlo_preserves (compile src) in
  check_int "no inlines of mismatched site" 0
    res.Hlo.Driver.report.Hlo.Report.inlines

let test_inliner_cross_module_scope () =
  let m1 = ("lib1", "func add1(x) { return x + 1; }") in
  let m2 =
    ( "app",
      {| func main() {
           var s = 0;
           for (var i = 0; i < 100; i = i + 1) { s = add1(s); }
           print_int(s);
           return 0;
         } |} )
  in
  let narrow =
    Hlo.Config.with_scope validated_config Hlo.Config.P
  in
  let res1 = hlo_preserves ~config:narrow (compile2 m1 m2) in
  check_int "module scope blocks cross-module inline" 0
    res1.Hlo.Driver.report.Hlo.Report.inlines;
  let wide = Hlo.Config.with_scope validated_config Hlo.Config.CP in
  let res2 = hlo_preserves ~config:wide (compile2 m1 m2) in
  check_bool "cross-module scope inlines" true
    (res2.Hlo.Driver.report.Hlo.Report.inlines >= 1)

let test_inliner_self_recursion_unrolls () =
  let src = {|
    func fact(n) {
      if (n <= 1) { return 1; }
      return n * fact(n - 1);
    }
    func main() { print_int(fact(10)); return 0; }
  |} in
  ignore (hlo_preserves (compile src))

let test_inliner_profile_scaling () =
  (* After inlining a hot call, the callee's residual entry count drops
     by the site's share. *)
  let src = {|
    func leaf(x) { return x + 1; }
    func main() {
      var s = 0;
      for (var i = 0; i < 60; i = i + 1) { s = leaf(s); }
      for (var i = 0; i < 40; i = i + 1) { s = leaf(s); }
      print_int(s);
      return 0;
    }
  |} in
  let p = compile src in
  let profile = (Interp.train p).Interp.profile in
  let leaf = U.find_routine_exn p "leaf" in
  check_float "before" 100.0 (Ucode.Profile.entry_count profile leaf);
  let config =
    { validated_config with
      Hlo.Config.max_operations = Some 1; enable_cloning = false }
  in
  let res = Hlo.Driver.run ~config ~profile p in
  (match U.find_routine res.Hlo.Driver.program "leaf" with
  | Some leaf' ->
    let after = Ucode.Profile.entry_count res.Hlo.Driver.profile leaf' in
    check_bool "residual profile dropped" true (after < 100.0)
  | None -> ())

(* ------------------------------------------------------------------ *)
(* Driver.                                                             *)

let test_driver_zero_budget () =
  let src = screen_fixture "" in
  let config = { validated_config with Hlo.Config.budget_percent = 0.0 } in
  let res = hlo_preserves ~config (compile src) in
  let report = res.Hlo.Driver.report in
  (* Zero growth allowed: only free operations (none here). *)
  check_int "no inlines" 0 report.Hlo.Report.inlines

let test_driver_max_operations () =
  let src = {|
    func a1(x) { return x + 1; }
    func a2(x) { return x + 2; }
    func a3(x) { return x + 3; }
    func main() {
      var s = 0;
      for (var i = 0; i < 50; i = i + 1) {
        s = a1(s) + a2(s) + a3(s);
      }
      print_int(s);
      return 0;
    }
  |} in
  let config = { validated_config with Hlo.Config.max_operations = Some 2 } in
  let res = hlo_preserves ~config (compile src) in
  check_bool "capped" true
    (Hlo.Report.total_operations res.Hlo.Driver.report <= 2)

let test_driver_deletes_fully_cloned_static () =
  let src = {|
    static func helper(mode, x) {
      if (mode == 0) { return x + 1; }
      return x * 2;
    }
    func main() {
      var s = 0;
      for (var i = 0; i < 80; i = i + 1) { s = helper(0, s); }
      print_int(s);
      return 0;
    }
  |} in
  let res = hlo_preserves (compile src) in
  check_bool "the static helper died" true
    (U.find_routine res.Hlo.Driver.program "main$helper" = None);
  check_bool "deletions counted" true
    (res.Hlo.Driver.report.Hlo.Report.deletions >= 1)

let test_driver_staged_devirtualization () =
  (* The §3.1 chain: clone at a site passing a function pointer;
     constant propagation turns the indirect call direct; a later pass
     inlines it.  End state: main's hot path has no indirect calls. *)
  let src = {|
    func work(x) { return x * 3 + 1; }
    func apply_n(f, n, x) {
      var i = 0;
      while (i < n) { x = f(x); i = i + 1; }
      return x;
    }
    func main() {
      print_int(apply_n(&work, 200, 1));
      return 0;
    }
  |} in
  let config =
    { validated_config with Hlo.Config.budget_percent = 300.0; pass_limit = 6;
      staging = [ 0.4; 0.6; 0.8; 1.0 ] }
  in
  let res = hlo_preserves ~config (compile src) in
  let p' = res.Hlo.Driver.program in
  (* The hot loop now reaches work directly (or fully inlined): no
     routine *reachable from main* both loops and calls indirectly.
     The original apply_n survives as an exported-but-uncalled root
     and legitimately keeps its indirect call. *)
  let rec reachable seen name =
    if U.String_set.mem name seen then seen
    else
      match U.find_routine p' name with
      | None -> seen
      | Some r ->
        let seen = U.String_set.add name seen in
        List.fold_left
          (fun seen (_, c) ->
            match c.U.c_callee with
            | U.Direct n -> reachable seen n
            | U.Indirect _ -> seen)
          seen (U.calls_of_routine r)
  in
  let live = reachable U.String_set.empty p'.U.p_main in
  let indirect_in_loop =
    List.exists
      (fun (r : U.routine) ->
        U.String_set.mem r.U.r_name live
        &&
        let cyc = Hlo.Summaries.blocks_in_cycles r in
        List.exists
          (fun (b : U.block) ->
            U.Int_set.mem b.U.b_id cyc
            && List.exists
                 (function
                   | U.Call { c_callee = U.Indirect _; _ } -> true
                   | _ -> false)
                 b.U.b_instrs)
          r.U.r_blocks)
      p'.U.p_routines
  in
  check_bool "hot indirect call devirtualized" false indirect_in_loop

let test_driver_all_workloads_preserved () =
  List.iter
    (fun b ->
      let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
      ignore
        (hlo_preserves ~config:validated_config p);
      ignore
        (hlo_preserves
           ~config:(Hlo.Config.with_scope validated_config Hlo.Config.Base)
           ~with_profile:false p))
    Workloads.Suite.all

let test_inliner_cascaded_chain () =
  (* A <- B <- C: the schedule runs bottom-up, so A receives B's body
     with C already inside it.  End state: the hot path of main has no
     calls left at all (other than the print). *)
  let src = {|
    func c_leaf(x) { return x * 2 + 1; }
    func b_mid(x) { return c_leaf(x) + 3; }
    func a_top(x) { return b_mid(x) * 5; }
    func main() {
      var s = 0;
      for (var i = 0; i < 300; i = i + 1) { s = s + a_top(i); }
      print_int(s & 1048575);
      return 0;
    }
  |} in
  let config =
    { validated_config with Hlo.Config.budget_percent = 400.0 }
  in
  let res = hlo_preserves ~config (compile src) in
  let main = U.find_routine_exn res.Hlo.Driver.program "main" in
  let user_calls =
    List.filter
      (fun (_, c) ->
        match c.U.c_callee with
        | U.Direct n -> not (U.is_builtin n)
        | U.Indirect _ -> true)
      (U.calls_of_routine main)
  in
  check_int "hot chain fully flattened" 0 (List.length user_calls)

let test_cloner_indirect_bonus_ranks_first () =
  (* Two equally-hot cloning opportunities, equal in every respect
     except one binds a routine handle that feeds an indirect call:
     with a budget for exactly one clone, the devirtualizing one must
     win. *)
  let src = {|
    func work(x) { return x * 3 + 1; }
    func plain(mode, x) {
      var r = x;
      if (mode == 1) { r = r * 17 + 5; }
      if (mode == 2) { r = r ^ 255; }
      return r + mode;
    }
    func applier(f, x) {
      var r = x;
      if (f) { r = f(x); }
      if (r > 100) { r = r - 100; }
      return r;
    }
    func main() {
      var s = 0;
      for (var i = 0; i < 500; i = i + 1) {
        s = s + plain(1, i);
        s = s + applier(&work, i);
      }
      print_int(s & 1048575);
      return 0;
    }
  |} in
  let config =
    { validated_config with
      Hlo.Config.enable_inlining = false; max_operations = Some 1 }
  in
  let res = hlo_preserves ~config (compile src) in
  (match Hlo.Report.operations_in_order res.Hlo.Driver.report with
  | [ Hlo.Report.Op_clone_replace { clone; _ } ] ->
    check_bool "devirtualizing clone chosen first" true
      (String.length clone >= 7 && String.sub clone 0 7 = "applier")
  | _ -> Alcotest.fail "expected exactly one clone replacement")

(* ------------------------------------------------------------------ *)
(* Outliner (the paper's §5 extension).                                *)

let outline_fixture = {|
  global log_[64];
  global nlog = 0;
  func process(x) {
    var v = x * 3 + 1;
    if (v % 97 == 0) {
      var code = v * 7;
      var a = code & 255;
      var b = (code >> 8) & 255;
      var c = a * b + 13;
      log_[nlog & 63] = c;
      nlog = nlog + 1;
      v = c ^ 5;
    }
    return v & 65535;
  }
  func main() {
    var s = 0;
    for (var i = 0; i < 3000; i = i + 1) { s = (s + process(i)) % 999983; }
    print_int(s);
    print_int(nlog);
    return 0;
  }
|}

let test_outliner_extracts_cold_region () =
  let p = compile outline_fixture in
  let config =
    { validated_config with
      Hlo.Config.outline = true; enable_inlining = false;
      enable_cloning = false }
  in
  let res = hlo_preserves ~config p in
  check_bool "outlined something" true
    (res.Hlo.Driver.report.Hlo.Report.outlined >= 1);
  (* The quadratic cost must shrink: (n-k)^2 + k^2 < n^2. *)
  check_bool "cost shrank" true
    (res.Hlo.Driver.report.Hlo.Report.cost_after
    < res.Hlo.Driver.report.Hlo.Report.cost_before);
  (* The cold routine exists, is module-local and noinline. *)
  let cold =
    List.find_opt
      (fun (r : U.routine) ->
        String.length r.U.r_name > 6
        && String.sub r.U.r_name 0 7 = "process"
        && r.U.r_name <> "process")
      res.Hlo.Driver.program.U.p_routines
  in
  match cold with
  | Some r ->
    check_bool "module-local" true (r.U.r_linkage = U.Module_local);
    check_bool "noinline" true r.U.r_attrs.U.a_no_inline
  | None -> Alcotest.fail "no outlined routine found"

let test_outliner_region_shape () =
  (* find_regions on the fixture: the cold region's interface is small
     and its blocks exclude the routine entry. *)
  let p = compile outline_fixture in
  let p = Opt.Pipeline.optimize_program p in
  let profile = (Interp.train p).Interp.profile in
  let process = U.find_routine_exn p "process" in
  (match Hlo.Outliner.find_regions ~profile process with
  | rg :: _ ->
    check_bool "entry not in region" false
      (U.Int_set.mem (U.entry_block process).U.b_id rg.Hlo.Outliner.rg_blocks);
    check_bool "region is cold code, several instrs" true
      (rg.Hlo.Outliner.rg_size >= 6);
    check_bool "few inputs" true
      (List.length rg.Hlo.Outliner.rg_inputs <= 6);
    check_bool "exit outside region" false
      (U.Int_set.mem rg.Hlo.Outliner.rg_exit rg.Hlo.Outliner.rg_blocks)
  | [] -> Alcotest.fail "expected a region in process");
  (* The hot routine (main) has no cold region. *)
  let main = U.find_routine_exn p "main" in
  check_int "main has no regions" 0
    (List.length (Hlo.Outliner.find_regions ~profile main))

let test_outliner_needs_profile () =
  let p = compile outline_fixture in
  let config =
    { validated_config with
      Hlo.Config.outline = true; enable_inlining = false;
      enable_cloning = false }
  in
  let res = Hlo.Driver.run ~config ~profile:Ucode.Profile.empty p in
  check_int "no outlining without profile" 0
    res.Hlo.Driver.report.Hlo.Report.outlined

let test_outliner_skips_hot_regions () =
  (* Everything here is hot; nothing should be outlined. *)
  let src = {|
    func main() {
      var s = 0;
      for (var i = 0; i < 1000; i = i + 1) {
        if (i & 1) { s = s + i; } else { s = s - i; }
      }
      print_int(s);
      return 0;
    }
  |} in
  let config = { validated_config with Hlo.Config.outline = true } in
  let res = hlo_preserves ~config (compile src) in
  check_int "nothing outlined" 0 res.Hlo.Driver.report.Hlo.Report.outlined

let test_outliner_on_workloads () =
  (* Outlining must preserve every workload's behavior end to end. *)
  List.iter
    (fun name ->
      let b = Workloads.Suite.find name in
      let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
      let config = { validated_config with Hlo.Config.outline = true } in
      ignore (hlo_preserves ~config p))
    [ "124.m88ksim"; "147.vortex"; "026.compress" ]

let test_outliner_never_whole_body () =
  (* An absurd cold cut classifies every block as cold, but a region
     can never swallow a whole routine: the entry block is structurally
     excluded and returns may not move into the extracted routine, so a
     hot stub always stays behind. *)
  let p = compile outline_fixture in
  let p = Opt.Pipeline.optimize_program p in
  let profile = (Interp.train p).Interp.profile in
  let greedy =
    { Hlo.Outliner.default_config with
      Hlo.Outliner.cold_fraction = 1000.0; min_instructions = 1 }
  in
  List.iter
    (fun (r : U.routine) ->
      List.iter
        (fun (rg : Hlo.Outliner.region) ->
          check_bool "entry block excluded" false
            (U.Int_set.mem (U.entry_block r).U.b_id rg.Hlo.Outliner.rg_blocks);
          check_bool "region strictly smaller than routine" true
            (U.Int_set.cardinal rg.Hlo.Outliner.rg_blocks
            < List.length r.U.r_blocks);
          List.iter
            (fun (b : U.block) ->
              if U.Int_set.mem b.U.b_id rg.Hlo.Outliner.rg_blocks then
                match b.U.b_term with
                | U.Return _ ->
                  Alcotest.failf "return inside region of %s" r.U.r_name
                | _ -> ())
            r.U.r_blocks)
        (Hlo.Outliner.find_regions ~config:greedy ~profile r))
    p.U.p_routines

let test_outliner_zero_count_routine () =
  (* [rare] is statically reachable (so the dead-call cleanup keeps it)
     but the guard never fires at runtime: every block count is zero.
     Both coldness bases then have a zero reference, and nothing is
     "colder than" zero — no regions, under either basis. *)
  let src = {|
    global gs;
    func rare(x) {
      var v = x * 7;
      if (v % 3 == 0) {
        gs = gs + v * 5;
        gs = gs - (v & 255);
        gs = gs + 1;
        gs = gs * 2;
        gs = gs + x;
        gs = gs - 4;
      } else { }
      return v + gs;
    }
    func main() {
      var s = 0;
      for (var i = 0; i < 100; i = i + 1) {
        if (i > 100000) { s = s + rare(i); } else { s = s + i; }
      }
      print_int(s);
      return 0;
    }
  |} in
  let p = Opt.Pipeline.optimize_program (compile src) in
  let profile = (Interp.train p).Interp.profile in
  check_bool "profile has data (main ran)" false
    (Ucode.Profile.is_empty profile);
  let rare = U.find_routine_exn p "rare" in
  let loose =
    { Hlo.Outliner.default_config with
      Hlo.Outliner.cold_fraction = 1000.0; min_instructions = 1 }
  in
  List.iter
    (fun basis ->
      check_int "no regions in a never-run routine" 0
        (List.length
           (Hlo.Outliner.find_regions ~config:loose ~basis ~profile rare)))
    [ `Entry; `Hottest ]

let test_outliner_max_inputs_overflow () =
  (* The cold region reads many registers defined above it; each live-in
     becomes a parameter of the outlined routine, so a tight max_inputs
     must reject the region while a looser one accepts it. *)
  let src = {|
    global gs;
    func wide(x) {
      var a = x * 3 + 1;
      var b = x * 5 + 2;
      var c = x * 7 + 3;
      var d = x * 11 + 4;
      var v = x + 9;
      if (x % 97 == 0) {
        gs = gs + a * b;
        gs = gs + c * d;
        gs = gs + a * c;
        gs = gs + b * d;
        v = (a + b + c + d + gs) & 65535;
      } else { }
      return (v + a - b + c - d) & 65535;
    }
    func main() {
      var s = 0;
      for (var i = 0; i < 2000; i = i + 1) { s = (s + wide(i)) % 999983; }
      print_int(s);
      print_int(gs);
      return 0;
    }
  |} in
  let p = Opt.Pipeline.optimize_program (compile src) in
  let profile = (Interp.train p).Interp.profile in
  let wide = U.find_routine_exn p "wide" in
  let with_inputs n =
    Hlo.Outliner.find_regions
      ~config:
        { Hlo.Outliner.default_config with
          Hlo.Outliner.min_instructions = 1; max_inputs = n }
      ~profile wide
  in
  let generous = with_inputs 16 in
  check_bool "region found with a generous cap" true (generous <> []);
  let inputs =
    match generous with
    | rg :: _ -> List.length rg.Hlo.Outliner.rg_inputs
    | [] -> 0
  in
  check_bool "region genuinely needs several live-ins" true (inputs >= 3);
  check_int "tight max_inputs rejects the region" 0
    (List.length (with_inputs (inputs - 1)))

let clone_outline_fixture = {|
  global log_[64];
  global nlog = 0;
  func work(mode, x) {
    var v = x * 3;
    if (mode == 0) { v = v + 1; } else { v = v * 2 + 1; }
    if (v % 97 == 0) {
      var code = v * 7;
      var a = code & 255;
      var b = (code >> 8) & 255;
      var c = a * b + 13;
      log_[nlog & 63] = c;
      nlog = nlog + 1;
      v = c ^ 5;
    }
    return v & 65535;
  }
  func main() {
    var s = 0;
    for (var i = 0; i < 2000; i = i + 1) { s = (s + work(0, i)) % 999983; }
    for (var i = 0; i < 2000; i = i + 1) { s = (s + work(1, i)) % 999983; }
    print_int(s);
    print_int(nlog);
    return 0;
  }
|}

let test_outliner_inside_clones () =
  (* Cloning first (constant [mode] arguments), then outlining: the
     clones inherit a split of the original's profile, so their cold
     branches are still recognizably cold and get extracted from the
     *clone* bodies.  Checks the outliner composes with cloning rather
     than only working on source routines. *)
  let config =
    { validated_config with
      Hlo.Config.enable_cloning = true; enable_inlining = false;
      outline = false; outline_min_instructions = 4;
      (* Generous budget: both mode-specialized clones of [work] must be
         affordable before the outline stage can see them. *)
      budget_percent = 500.0;
      stages =
        [ Policy.Clone; Policy.Outline; Policy.Prune; Policy.Clean ] }
  in
  let res = hlo_preserves ~config (compile clone_outline_fixture) in
  let routines = res.Hlo.Driver.program.U.p_routines in
  let has sub (r : U.routine) =
    let name = r.U.r_name and n = String.length sub in
    let rec go i =
      i + n <= String.length name && (String.sub name i n = sub || go (i + 1))
    in
    go 0
  in
  check_bool "work was cloned" true
    (List.exists (fun r -> has "__clone" r) routines);
  let from_clone =
    List.filter (fun r -> has "__clone" r && has "__cold" r) routines
  in
  check_bool "a cold region was outlined out of a clone" true
    (from_clone <> []);
  List.iter
    (fun (r : U.routine) ->
      check_bool "clone residue is module-local" true
        (r.U.r_linkage = U.Module_local))
    from_clone

let test_report_totals () =
  let r = Hlo.Report.create () in
  check_int "empty" 0 (Hlo.Report.total_operations r);
  r.Hlo.Report.inlines <- 3;
  r.Hlo.Report.clone_replacements <- 4;
  check_int "sum" 7 (Hlo.Report.total_operations r)

let test_report_pp_zero_cost () =
  (* With no cost baseline the growth percentage is meaningless; pp must
     print "n/a" rather than a bogus percent (or a division by zero). *)
  let r = Hlo.Report.create () in
  let s = Fmt.str "%a" Hlo.Report.pp r in
  Alcotest.(check bool) "n/a when cost_before = 0" true
    (String.length s >= 5 && String.sub s (String.length s - 5) 5 = "(n/a)");
  r.Hlo.Report.cost_before <- 200.0;
  r.Hlo.Report.cost_after <- 150.0;
  let s = Fmt.str "%a" Hlo.Report.pp r in
  Alcotest.(check bool) "percent when cost_before > 0" true
    (String.length s >= 6 && String.sub s (String.length s - 6) 6 = "(-25%)")

(* ------------------------------------------------------------------ *)
(* The stage edit buffer.                                              *)

(* A one-block routine; [tag], its register count, tells apart
   routines of one name. *)
let tagged_routine name tag =
  { U.r_name = name; r_module = "m"; r_params = [];
    r_blocks = [ { U.b_id = 0; b_instrs = []; b_term = U.Return None } ];
    r_next_reg = tag; r_next_label = 1; r_attrs = U.default_attrs;
    r_linkage = U.Exported; r_origin = U.From_source }

type edit =
  | Find of string
  | Find_exn of string
  | Replace of U.routine
  | Add of U.routine

(* The list-based append the buffer replaced: a scan for the name, then
   an append at the end. *)
let list_add (p : U.program) (r : U.routine) =
  if U.find_routine p r.U.r_name <> None then
    invalid_arg ("add_routine: duplicate " ^ r.U.r_name);
  { p with U.p_routines = p.U.p_routines @ [ r ] }

let edit_name = function
  | Find n | Find_exn n -> n
  | Replace r | Add r -> r.U.r_name

let print_edits (names, edits) =
  Printf.sprintf "initial [%s]; edits [%s]" (String.concat " " names)
    (String.concat "; "
       (List.map
          (fun e ->
            (match e with
            | Find _ -> "find "
            | Find_exn _ -> "find_exn "
            | Replace _ -> "replace "
            | Add _ -> "add ")
            ^ edit_name e)
          edits))

(* Names from a small alphabet, so duplicates in the initial program,
   adds of a present name and edits of an absent one ("h" never starts
   out present) all come up. *)
let gen_edits =
  let open QCheck.Gen in
  let name = oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "g" ] in
  let any_name = oneofl [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h" ] in
  let* names = list_size (int_range 0 8) name in
  let+ edits =
    list_size (int_range 0 30)
      (let* n = any_name in
       let+ kind = int_range 0 3 and+ tag = int_range 100 1_000_000 in
       match kind with
       | 0 -> Find n
       | 1 -> Find_exn n
       | 2 -> Replace (tagged_routine n tag)
       | _ -> Add (tagged_routine n tag))
  in
  (names, edits)

(* Random find/replace/add sequences on the buffer and on the routine
   list: every lookup answers with the very same routine, every failed
   edit raises the same message, and the committed list is the list the
   list functions built. *)
let prop_buffer_agrees =
  QCheck.Test.make ~count:300 ~name:"edit buffer agrees with the list edits"
    (QCheck.make ~print:print_edits gen_edits)
    (fun (names, edits) ->
      let p0 =
        { U.p_routines = List.mapi (fun i n -> tagged_routine n i) names;
          p_globals = []; p_main = "main"; p_next_site = 0 }
      in
      let outcome f =
        match f () with
        | r -> Ok r
        | exception Invalid_argument msg -> Error msg
      in
      let model = ref p0 in
      let by_list =
        List.map
          (fun e ->
            outcome (fun () ->
                match e with
                | Find n -> U.find_routine !model n
                | Find_exn n -> Some (U.find_routine_exn !model n)
                | Replace r -> model := U.update_routine !model r; None
                | Add r -> model := list_add !model r; None))
          edits
      in
      let st =
        Hlo.State.create Hlo.Config.default
          ~memo:(Opt.Pipeline.create_memo ()) ~program:p0
          ~profile:Ucode.Profile.empty
      in
      let by_buffer =
        Hlo.State.with_edits st (fun () ->
            List.map
              (fun e ->
                outcome (fun () ->
                    match e with
                    | Find n -> Hlo.State.find_routine st n
                    | Find_exn n -> Some (Hlo.State.find_routine_exn st n)
                    | Replace r -> Hlo.State.update_routine st r; None
                    | Add r -> Hlo.State.add_routine st r; None))
              edits)
      in
      let same_result a b =
        match (a, b) with
        | Ok (Some x), Ok (Some y) -> x == y
        | Ok None, Ok None -> true
        | Error m, Error m' -> String.equal m m'
        | _ -> false
      in
      let committed = st.Hlo.State.program.U.p_routines in
      List.for_all2 same_result by_list by_buffer
      && List.length committed = List.length !model.U.p_routines
      && List.for_all2 ( == ) committed !model.U.p_routines
      && Option.is_none st.Hlo.State.edits)

(* A site taken while a stage is open bumps the counter on the program
   record itself, so the commit keeps it; an exception out of the stage
   still commits the edits made before it. *)
let test_buffer_keeps_fresh_site () =
  let p = compile "func main() { return 0; }" in
  let st =
    Hlo.State.create Hlo.Config.default ~memo:(Opt.Pipeline.create_memo ())
      ~program:p ~profile:Ucode.Profile.empty
  in
  let next = p.U.p_next_site in
  let extra = tagged_routine "extra" 0 in
  let site =
    Hlo.State.with_edits st (fun () ->
        let s = Hlo.State.fresh_site st in
        Hlo.State.add_routine st extra;
        s)
  in
  let program () = st.Hlo.State.program in
  check_int "site taken in the stage" next site;
  check_int "counter survives the commit" (next + 1) (program ()).U.p_next_site;
  check_bool "added routine committed last" true
    (List.nth (program ()).U.p_routines 1 == extra);
  check_int "next site is fresh" (next + 1) (Hlo.State.fresh_site st);
  Alcotest.check_raises "no edits outside a stage"
    (Invalid_argument "State: no edit stage is open") (fun () ->
      ignore (Hlo.State.find_routine st "main"));
  let late = tagged_routine "late" 0 in
  (match
     Hlo.State.with_edits st (fun () ->
         Hlo.State.add_routine st late;
         Hlo.State.add_routine st late)
   with
  | () -> Alcotest.fail "duplicate add accepted"
  | exception Invalid_argument msg ->
    check_string "duplicate add" "add_routine: duplicate late" msg);
  check_bool "edits before the raise committed" true
    (List.exists (fun r -> r == late) (program ()).U.p_routines);
  check_bool "stage closed" true (Option.is_none st.Hlo.State.edits)

(* ------------------------------------------------------------------ *)
(* The per-routine fact table.                                         *)

let facts_state ?(profile = Ucode.Profile.empty) routines =
  Hlo.State.create Hlo.Config.default ~memo:(Opt.Pipeline.create_memo ())
    ~program:
      { U.p_routines = routines; p_globals = []; p_main = "main";
        p_next_site = 0 }
    ~profile

(* Every fact the table gives for [r] is the one derived from [r]
   itself, under the state's current profile. *)
let check_facts what (st : Hlo.State.t) (r : U.routine) =
  check_bool (what ^ ": edges") true
    (Hlo.State.call_edges st r = Ucode.Callgraph.edges_of_routine r);
  check_bool (what ^ ": contexts") true
    (U.Int_map.equal ( = )
       (Hlo.State.edge_contexts st r)
       (Hlo.Summaries.edge_contexts r));
  let direct =
    Hlo.Summaries.param_usage ~config:Hlo.Config.default
      ~profile:st.Hlo.State.profile r
  in
  check_bool (what ^ ": P(R)") true (Hlo.State.param_usage st r = direct)

let version_one = {|
  func g(a, b) { return a + b; }
  func h(x) { return x; }
  func f(p, q) { if (p) { return g(p, 1); } return q; }
  func main() { print_int(f(1, 2)); return 0; }
|}

(* The same names, rewritten: [f] calls [h] with other constants, takes
   [g]'s address, and uses its formals elsewhere. *)
let version_two = {|
  func g(a, b) { return a + b; }
  func h(x) { return x; }
  func f(p, q) { var k = g; print_int(k(q, p)); return h(5) + p * q; }
  func main() { print_int(f(1, 2)); return 0; }
|}

let test_facts_follow_versions () =
  let f1 = U.find_routine_exn (compile version_one) "f" in
  let f2 = U.find_routine_exn (compile version_two) "f" in
  let st = facts_state [ f1 ] in
  check_facts "first version" st f1;
  check_bool "a second lookup is answered from the table" true
    (Hlo.State.call_edges st f1 == Hlo.State.call_edges st f1);
  check_bool "the versions differ" false
    (Ucode.Callgraph.edges_of_routine f1 = Ucode.Callgraph.edges_of_routine f2);
  (* A rewritten value of the same name misses, however many facts the
     old value had. *)
  check_facts "rewritten version" st f2;
  check_bool "addresses of the rewrite" true
    (Hlo.State.address_refs st f2 = [ "g" ]);
  check_facts "first version again" st f1;
  check_bool "addresses of the first" true (Hlo.State.address_refs st f1 = [])

let test_facts_follow_profile () =
  let p = compile version_one in
  let f = U.find_routine_exn p "f" in
  let entry = (U.entry_block f).U.b_id in
  let counted n =
    List.fold_left
      (fun prof (b : U.block) ->
        Ucode.Profile.add_block prof ~routine:"f" ~block:b.U.b_id
          (if b.U.b_id = entry then 10.0 else n))
      Ucode.Profile.empty f.U.r_blocks
  in
  let st = facts_state ~profile:(counted 10.0) [ f ] in
  check_facts "first profile" st f;
  let before = Hlo.State.param_usage st f in
  (* A clone split or an inline transfer replaces the routine's block
     map; the routine value stays the same. *)
  st.Hlo.State.profile <- counted 0.0;
  check_facts "rewritten profile" st f;
  check_bool "the weights moved" false (Hlo.State.param_usage st f = before)

(* Two definitions of one name (the index lets the first win): the
   table holds one of them at a time, and each lookup still answers for
   the value it is given. *)
let test_facts_duplicate_names () =
  let dup src = U.find_routine_exn (compile src) "f" in
  let d1 = dup version_one and d2 = dup version_two in
  let main = U.find_routine_exn (compile version_one) "main" in
  let st = facts_state [ main; d1; d2 ] in
  List.iteri
    (fun i r -> check_facts (Printf.sprintf "lookup %d" i) st r)
    [ d1; d2; d2; d1; d1; d2 ];
  let p = st.Hlo.State.program in
  check_bool "call graph over duplicates" true
    ((Ucode.Callgraph.build ~edges_of:(Hlo.State.call_edges st) p)
       .Ucode.Callgraph.cg_edges
    = (Ucode.Callgraph.build p).Ucode.Callgraph.cg_edges)

let () =
  Alcotest.run "hlo"
    [ ( "budget",
        [ Alcotest.test_case "math" `Quick test_budget_math;
          Alcotest.test_case "empty staging" `Quick
            test_budget_empty_staging_rejected;
          Alcotest.test_case "bad staging" `Quick
            test_budget_bad_staging_rejected ] );
      ( "summaries",
        [ Alcotest.test_case "param usage" `Quick test_param_usage_weights;
          Alcotest.test_case "edge contexts" `Quick test_edge_contexts;
          Alcotest.test_case "cycles" `Quick test_blocks_in_cycles ] );
      ( "clone-spec",
        [ Alcotest.test_case "intersect/match" `Quick test_intersect_and_match;
          Alcotest.test_case "make clone" `Quick test_make_clone_shape ] );
      ( "cloner",
        [ Alcotest.test_case "creates groups" `Quick test_cloner_creates_groups;
          Alcotest.test_case "noclone" `Quick test_cloner_respects_noclone;
          Alcotest.test_case "varargs" `Quick test_cloner_respects_varargs;
          Alcotest.test_case "database reuse" `Quick test_clone_database_reuse ] );
      ( "inliner",
        [ Alcotest.test_case "flattens hot call" `Quick test_inliner_flattens;
          Alcotest.test_case "legality screen" `Quick test_inliner_legality_screen;
          Alcotest.test_case "arity mismatch" `Quick
            test_inliner_arity_mismatch_blocked;
          Alcotest.test_case "cross-module scope" `Quick
            test_inliner_cross_module_scope;
          Alcotest.test_case "self recursion" `Quick
            test_inliner_self_recursion_unrolls;
          Alcotest.test_case "profile scaling" `Quick
            test_inliner_profile_scaling;
          Alcotest.test_case "cascaded chain" `Quick test_inliner_cascaded_chain;
          Alcotest.test_case "indirect bonus" `Quick
            test_cloner_indirect_bonus_ranks_first ] );
      ( "outliner",
        [ Alcotest.test_case "extracts cold region" `Quick
            test_outliner_extracts_cold_region;
          Alcotest.test_case "region shape" `Quick test_outliner_region_shape;
          Alcotest.test_case "needs profile" `Quick test_outliner_needs_profile;
          Alcotest.test_case "skips hot regions" `Quick
            test_outliner_skips_hot_regions;
          Alcotest.test_case "preserves workloads" `Slow
            test_outliner_on_workloads;
          Alcotest.test_case "never whole body" `Quick
            test_outliner_never_whole_body;
          Alcotest.test_case "zero-count routine" `Quick
            test_outliner_zero_count_routine;
          Alcotest.test_case "max_inputs overflow" `Quick
            test_outliner_max_inputs_overflow;
          Alcotest.test_case "outlines inside clones" `Quick
            test_outliner_inside_clones ] );
      ( "driver",
        [ Alcotest.test_case "zero budget" `Quick test_driver_zero_budget;
          Alcotest.test_case "max operations" `Quick test_driver_max_operations;
          Alcotest.test_case "deletes cloned static" `Quick
            test_driver_deletes_fully_cloned_static;
          Alcotest.test_case "staged devirtualization" `Quick
            test_driver_staged_devirtualization;
          Alcotest.test_case "all workloads preserved" `Slow
            test_driver_all_workloads_preserved;
          Alcotest.test_case "report totals" `Quick test_report_totals;
          Alcotest.test_case "report pp zero cost" `Quick
            test_report_pp_zero_cost ] );
      ( "fact table",
        [ Alcotest.test_case "follows routine versions" `Quick
            test_facts_follow_versions;
          Alcotest.test_case "follows the profile" `Quick
            test_facts_follow_profile;
          Alcotest.test_case "duplicate names" `Quick
            test_facts_duplicate_names ] );
      ( "edit buffer",
        [ QCheck_alcotest.to_alcotest prop_buffer_agrees;
          Alcotest.test_case "fresh site survives commit" `Quick
            test_buffer_keeps_fresh_site ] ) ]
