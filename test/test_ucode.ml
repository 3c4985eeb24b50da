(* Tests for the ucode IR library: instruction structure, the builder,
   renaming, the cost model, validation, call graphs and the profile
   database. *)

module U = Ucode.Types
module B = Ucode.Builder

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Helpers to build small programs without the front end.              *)

(* A routine [name(p0)] with a single block: r1 = p0 + p0; return r1 *)
let simple_routine ?(module_name = "m") ?(linkage = U.Exported)
    ?(attrs = U.default_attrs) ~fresh_site name =
  let b, params =
    B.create ~name ~module_name ~linkage ~attrs ~nparams:1 ~fresh_site ()
  in
  let p0 = List.nth params 0 in
  let l = B.fresh_label b in
  B.start_block b l;
  let sum = B.binop b U.Add p0 p0 in
  B.seal b (U.Return (Some sum));
  ignore sum;
  B.finish b

let program_of routines =
  let p =
    { U.p_routines = routines; p_globals = []; p_main = "main";
      p_next_site =
        List.fold_left
          (fun acc r ->
            List.fold_left
              (fun acc (_, c) -> max acc (c.U.c_site + 1))
              acc (U.calls_of_routine r))
          0 routines }
  in
  p

(* main calls callee(42) in a loop-free body. *)
let caller_callee_program () =
  let fresh_site, _ = B.site_counter () in
  let callee = simple_routine ~fresh_site "callee" in
  let b, _ = B.create ~name:"main" ~module_name:"m" ~nparams:0 ~fresh_site () in
  let l = B.fresh_label b in
  B.start_block b l;
  let k = B.const b 42L in
  let dst = B.fresh_reg b in
  B.call b ~dst:(Some dst) (U.Direct "callee") [ k ];
  B.seal b (U.Return (Some dst));
  let main = B.finish b in
  program_of [ callee; main ]

(* ------------------------------------------------------------------ *)
(* Types: uses/defs.                                                   *)

let test_instr_uses_def () =
  let cases =
    [ (U.Const (3, 7L), [], Some 3);
      (U.Faddr (2, "f"), [], Some 2);
      (U.Gaddr (2, "g"), [], Some 2);
      (U.Unop (1, U.Neg, 2), [ 2 ], Some 1);
      (U.Binop (1, U.Add, 2, 3), [ 2; 3 ], Some 1);
      (U.Move (4, 5), [ 5 ], Some 4);
      (U.Load (1, 2), [ 2 ], Some 1);
      (U.Store (1, 2), [ 1; 2 ], None);
      ( U.Call { c_dst = Some 9; c_callee = U.Indirect 7; c_args = [ 5; 6 ];
                 c_site = 0 },
        [ 7; 5; 6 ], Some 9 ) ]
  in
  List.iter
    (fun (i, uses, def) ->
      Alcotest.(check (list int)) "uses" uses (U.instr_uses i);
      Alcotest.(check (option int)) "def" def (U.instr_def i))
    cases

let test_map_instr_uses_preserves_def () =
  let i = U.Binop (1, U.Add, 1, 2) in
  (match U.map_instr_uses (fun r -> r + 10) i with
  | U.Binop (1, U.Add, 11, 12) -> ()
  | _ -> Alcotest.fail "map_instr_uses must not touch the def");
  match U.map_instr_regs (fun r -> r + 10) i with
  | U.Binop (11, U.Add, 11, 12) -> ()
  | _ -> Alcotest.fail "map_instr_regs must rename the def too"

let test_term_structure () =
  Alcotest.(check (list int)) "jump targets" [ 4 ] (U.term_targets (U.Jump 4));
  Alcotest.(check (list int)) "branch targets" [ 1; 2 ]
    (U.term_targets (U.Branch (0, 1, 2)));
  Alcotest.(check (list int)) "return targets" [] (U.term_targets (U.Return None));
  Alcotest.(check (list int)) "branch uses" [ 9 ]
    (U.term_uses (U.Branch (9, 1, 2)))

(* The allocation-free forms visit exactly what the list forms return,
   in the same order, on every instruction and terminator of [p]. *)
let check_iterators (p : U.program) =
  let visited iter =
    let acc = ref [] in
    iter (fun x -> acc := x :: !acc);
    List.rev !acc
  in
  let check_block (r : U.routine) (b : U.block) =
    List.iter
      (fun i ->
        if visited (fun f -> U.iter_instr_uses f i) <> U.instr_uses i
           || U.instr_def_reg i <> Option.value ~default:(-1) (U.instr_def i)
        then Fmt.failwith "%s: %a" r.U.r_name Ucode.Pp.pp_instr i)
      b.U.b_instrs;
    if visited (fun f -> U.iter_term_uses f b.U.b_term) <> U.term_uses b.U.b_term
    then Fmt.failwith "%s: the terminator of block %d" r.U.r_name b.U.b_id
  in
  List.iter (fun r -> List.iter (check_block r) r.U.r_blocks) p.U.p_routines

let test_iterators_on_workloads () =
  List.iter
    (fun b -> check_iterators (Workloads.Suite.compile b ~input:Workloads.Suite.Train))
    Workloads.Suite.all

let prop_iterators_agree =
  QCheck.Test.make ~count:100 ~name:"iterators agree with the list forms"
    Prog_gen.arbitrary_program (fun p -> check_iterators p; true)

(* ------------------------------------------------------------------ *)
(* Builder.                                                            *)

let test_builder_basic () =
  let fresh_site, total_sites = B.site_counter () in
  let r = simple_routine ~fresh_site "f" in
  check_int "one block" 1 (List.length r.U.r_blocks);
  check_int "entry id" 0 (U.entry_block r).U.b_id;
  check_int "params" 1 (List.length r.U.r_params);
  check_bool "regs allocated" true (r.U.r_next_reg >= 2);
  check_int "no call sites" 0 (total_sites ())

let test_builder_errors () =
  let fresh_site, _ = B.site_counter () in
  let b, _ = B.create ~name:"f" ~module_name:"m" ~nparams:0 ~fresh_site () in
  (* finish with no blocks *)
  Alcotest.check_raises "no blocks"
    (Invalid_argument "Builder.finish: routine has no blocks") (fun () ->
      ignore (B.finish b));
  let l = B.fresh_label b in
  B.start_block b l;
  (* finish with open block *)
  Alcotest.check_raises "open block"
    (Invalid_argument "Builder.finish: block 0 still open") (fun () ->
      ignore (B.finish b));
  (* emitting into a sealed builder *)
  B.seal b (U.Return None);
  Alcotest.check_raises "emit without block"
    (Invalid_argument "Builder.emit: no open block") (fun () ->
      B.emit b (U.Const (0, 0L)))

let test_builder_entry_must_be_zero () =
  let fresh_site, _ = B.site_counter () in
  let b, _ = B.create ~name:"f" ~module_name:"m" ~nparams:0 ~fresh_site () in
  let _skip = B.fresh_label b in
  let l1 = B.fresh_label b in
  B.start_block b l1;
  B.seal b (U.Return None);
  Alcotest.check_raises "entry 0 missing"
    (Invalid_argument "Builder.finish: entry block 0 missing") (fun () ->
      ignore (B.finish b))

(* ------------------------------------------------------------------ *)
(* Rename.                                                             *)

let test_copy_body_offsets () =
  let fresh_site, _ = B.site_counter () in
  let b, params = B.create ~name:"f" ~module_name:"m" ~nparams:1 ~fresh_site () in
  let p0 = List.hd params in
  let l0 = B.fresh_label b in
  let l1 = B.fresh_label b in
  B.start_block b l0;
  let dst = B.fresh_reg b in
  B.call b ~dst:(Some dst) (U.Direct "g") [ p0 ];
  B.seal b (U.Jump l1);
  B.start_block b l1;
  B.seal b (U.Return (Some dst));
  let r = B.finish b in
  let next = ref 100 in
  let fresh () = let s = !next in incr next; s in
  let copy = Ucode.Rename.copy_body r ~reg_base:50 ~label_base:10 ~fresh_site:fresh in
  check_int "entry shifted" 10 copy.Ucode.Rename.cp_entry;
  Alcotest.(check (list int)) "params shifted" [ 50 ] copy.Ucode.Rename.cp_params;
  check_int "next reg" (r.U.r_next_reg + 50) copy.Ucode.Rename.cp_next_reg;
  (* The copied call got a fresh site and the map records it. *)
  (match copy.Ucode.Rename.cp_site_map with
  | [ (old_site, 100) ] -> check_int "old site" 0 old_site
  | _ -> Alcotest.fail "expected exactly one site mapping");
  (* Register renaming applied inside the copied call. *)
  match copy.Ucode.Rename.cp_blocks with
  | { U.b_instrs = [ U.Call { c_args = [ a ]; c_site = 100; _ } ]; _ } :: _ ->
    check_int "arg renamed" 50 a
  | _ -> Alcotest.fail "unexpected copied entry block"

let test_copy_routine_origin () =
  let fresh_site, _ = B.site_counter () in
  let r = simple_routine ~fresh_site "orig" in
  let clone, _ = Ucode.Rename.copy_routine r ~new_name:"c1" ~fresh_site in
  check_bool "clone origin" true (clone.U.r_origin = U.Clone_of "orig");
  (* Cloning a clone keeps pointing at the original. *)
  let clone2, _ = Ucode.Rename.copy_routine clone ~new_name:"c2" ~fresh_site in
  check_bool "clone-of-clone origin" true (clone2.U.r_origin = U.Clone_of "orig")

(* ------------------------------------------------------------------ *)
(* Size / cost model.                                                  *)

let test_cost_model () =
  let fresh_site, _ = B.site_counter () in
  let r = simple_routine ~fresh_site "f" in
  (* one instr + one terminator *)
  check_int "size" 2 (Ucode.Size.routine_size r);
  Alcotest.(check (float 0.001)) "quadratic" 4.0 (Ucode.Size.routine_cost r);
  let p = program_of [ r; simple_routine ~fresh_site "main" ] in
  Alcotest.(check (float 0.001)) "program cost" 8.0 (Ucode.Size.program_cost p);
  Alcotest.(check (float 0.001)) "cost_of_size" 25.0 (Ucode.Size.cost_of_size 5)

(* ------------------------------------------------------------------ *)
(* Validation.                                                         *)

let test_validate_good () =
  let p = caller_callee_program () in
  Alcotest.(check (list string)) "no errors" []
    (List.map (fun e -> Fmt.str "%a" Ucode.Validate.pp_error e)
       (Ucode.Validate.check_program p))

let test_validate_detects () =
  let p = caller_callee_program () in
  let main = U.find_routine_exn p "main" in
  (* Branch to a missing block. *)
  let bad_blocks =
    List.map (fun (b : U.block) -> { b with U.b_term = U.Jump 99 }) main.U.r_blocks
  in
  let bad = U.update_routine p { main with U.r_blocks = bad_blocks } in
  check_bool "missing target caught" true (Ucode.Validate.check_program bad <> []);
  (* Unknown callee. *)
  let rename_call (b : U.block) =
    { b with
      U.b_instrs =
        List.map
          (function
            | U.Call c -> U.Call { c with U.c_callee = U.Direct "nosuch" }
            | i -> i)
          b.U.b_instrs }
  in
  let bad2 =
    U.update_routine p
      { main with U.r_blocks = List.map rename_call main.U.r_blocks }
  in
  check_bool "unknown callee caught" true (Ucode.Validate.check_program bad2 <> []);
  (* Missing main. *)
  let bad3 = { p with U.p_main = "absent" } in
  check_bool "missing main caught" true (Ucode.Validate.check_program bad3 <> [])

let test_validate_duplicate_sites () =
  let p = caller_callee_program () in
  let main = U.find_routine_exn p "main" in
  let dup (b : U.block) =
    { b with
      U.b_instrs =
        List.concat_map
          (function U.Call c -> [ U.Call c; U.Call c ] | i -> [ i ])
          b.U.b_instrs }
  in
  let bad =
    U.update_routine p { main with U.r_blocks = List.map dup main.U.r_blocks }
  in
  check_bool "duplicate site caught" true (Ucode.Validate.check_program bad <> [])

(* Each malformation must be reported with a message naming it — not
   just "some error somewhere".  These are the failure modes a buggy
   transformation (or a buggy parallel merge) would actually produce. *)
let expect_error what mutate =
  let p = caller_callee_program () in
  let bad = mutate p in
  let errors = Ucode.Validate.check_program bad in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
    at 0
  in
  check_bool
    (Printf.sprintf "expected %S in:\n%s" what
       (Ucode.Validate.errors_to_string errors))
    true
    (List.exists
       (fun (e : Ucode.Validate.error) -> contains e.Ucode.Validate.what what)
       errors)

let map_main_blocks p f =
  let main = U.find_routine_exn p "main" in
  U.update_routine p { main with U.r_blocks = List.map f main.U.r_blocks }

let test_validate_error_paths () =
  (* Duplicate parameter registers. *)
  expect_error "duplicate parameter" (fun p ->
      let callee = U.find_routine_exn p "callee" in
      U.update_routine p
        { callee with
          U.r_params = [ 0; 0 ];
          r_next_reg = max 2 callee.U.r_next_reg });
  (* Parameter register out of range. *)
  expect_error "parameter register" (fun p ->
      let callee = U.find_routine_exn p "callee" in
      U.update_routine p { callee with U.r_params = [ callee.U.r_next_reg ] });
  (* Branch to a missing block, with the target named. *)
  expect_error "branch to missing block 99" (fun p ->
      map_main_blocks p (fun b -> { b with U.b_term = U.Jump 99 }));
  (* A routine with no blocks at all. *)
  expect_error "no blocks" (fun p ->
      let callee = U.find_routine_exn p "callee" in
      U.update_routine p { callee with U.r_blocks = [] });
  (* Duplicate block ids. *)
  expect_error "duplicate block id" (fun p ->
      let main = U.find_routine_exn p "main" in
      U.update_routine p
        { main with U.r_blocks = main.U.r_blocks @ main.U.r_blocks });
  (* Block id outside [0, r_next_label). *)
  expect_error "out of range" (fun p ->
      let main = U.find_routine_exn p "main" in
      U.update_routine p { main with U.r_next_label = 0 });
  (* A register beyond r_next_reg. *)
  expect_error "register" (fun p ->
      map_main_blocks p (fun b ->
          { b with
            U.b_instrs = U.Const (1_000_000, 0L) :: b.U.b_instrs }));
  (* Site id out of the program's [0, p_next_site) range. *)
  expect_error "site id" (fun p ->
      map_main_blocks p (fun b ->
          { b with
            U.b_instrs =
              List.map
                (function
                  | U.Call c -> U.Call { c with U.c_site = p.U.p_next_site + 7 }
                  | i -> i)
                b.U.b_instrs }));
  (* Negative site id. *)
  expect_error "site id" (fun p ->
      map_main_blocks p (fun b ->
          { b with
            U.b_instrs =
              List.map
                (function
                  | U.Call c -> U.Call { c with U.c_site = -1 }
                  | i -> i)
                b.U.b_instrs }));
  (* Duplicate routine names. *)
  expect_error "duplicate routine name" (fun p ->
      { p with U.p_routines = p.U.p_routines @ [ List.hd p.U.p_routines ] });
  (* Faddr of an undefined routine. *)
  expect_error "faddr of undefined routine" (fun p ->
      map_main_blocks p (fun b ->
          { b with U.b_instrs = U.Faddr (0, "ghost") :: b.U.b_instrs }))

(* ------------------------------------------------------------------ *)
(* Call graph.                                                         *)

let test_callgraph_edges () =
  let p = caller_callee_program () in
  let cg = Ucode.Callgraph.build p in
  check_int "one edge" 1 (Ucode.Callgraph.total_sites cg);
  check_int "incoming callee" 1 (List.length (Ucode.Callgraph.incoming cg "callee"));
  check_int "outgoing main" 1 (List.length (Ucode.Callgraph.outgoing cg "main"));
  check_int "incoming main" 0 (List.length (Ucode.Callgraph.incoming cg "main"))

let test_callgraph_bottom_up () =
  let p = caller_callee_program () in
  let cg = Ucode.Callgraph.build p in
  let order = Ucode.Callgraph.bottom_up_order cg in
  let pos n =
    let rec find i = function
      | [] -> -1
      | x :: _ when x = n -> i
      | _ :: tl -> find (i + 1) tl
    in
    find 0 order
  in
  check_bool "callee before caller" true (pos "callee" < pos "main")

let test_classification () =
  (* Build via the front end: it is the easiest way to get all five
     classes in one program. *)
  let m1 = {|
    static func helper(x) { return x + 1; }
    func rec(n) { if (n <= 0) { return 0; } return rec(n - 1); }
    func exported(x) { return helper(x); }
  |} in
  let m2 = {|
    func main() {
      var f = &exported;
      print_int(f(exported(1)) + rec(3));
      return 0;
    }
  |} in
  let p, _ =
    Minic.Compile.compile_program
      [ Minic.Compile.source ~module_name:"m1" m1;
        Minic.Compile.source ~module_name:"m2" m2 ]
  in
  let cg = Ucode.Callgraph.build p in
  let counts = Ucode.Callgraph.classify cg in
  let get c = List.assoc c counts in
  check_int "external (print_int)" 1 (get Ucode.Callgraph.External);
  check_int "indirect" 1 (get Ucode.Callgraph.Indirect_call);
  check_int "cross-module" 2 (get Ucode.Callgraph.Cross_module);
  check_int "within-module" 1 (get Ucode.Callgraph.Within_module);
  check_int "recursive" 1 (get Ucode.Callgraph.Recursive)

let test_mutual_recursion_is_recursive () =
  let src = {|
    func even(n) { if (n == 0) { return 1; } return odd(n - 1); }
    func odd(n) { if (n == 0) { return 0; } return even(n - 1); }
    func main() { print_int(even(4)); return 0; }
  |} in
  let p = Minic.Compile.compile_string src in
  let cg = Ucode.Callgraph.build p in
  let counts = Ucode.Callgraph.classify cg in
  check_int "mutual recursion classified recursive" 2
    (List.assoc Ucode.Callgraph.Recursive counts)

(* ------------------------------------------------------------------ *)
(* Profile database.                                                   *)

let test_profile_basic () =
  let t = Ucode.Profile.empty in
  check_bool "empty" true (Ucode.Profile.is_empty t);
  let t = Ucode.Profile.add_block t ~routine:"f" ~block:0 5.0 in
  let t = Ucode.Profile.add_block t ~routine:"f" ~block:0 3.0 in
  let t = Ucode.Profile.add_site t 7 10.0 in
  Alcotest.(check (float 0.001)) "block accumulates" 8.0
    (Ucode.Profile.block_count t ~routine:"f" ~block:0);
  Alcotest.(check (float 0.001)) "site" 10.0 (Ucode.Profile.site_count t 7);
  Alcotest.(check (float 0.001)) "missing site" 0.0 (Ucode.Profile.site_count t 99)

let test_profile_transfer_conserves () =
  let t = Ucode.Profile.empty in
  let t = Ucode.Profile.add_block t ~routine:"callee" ~block:0 100.0 in
  let t = Ucode.Profile.add_block t ~routine:"callee" ~block:1 60.0 in
  let t = Ucode.Profile.add_site t 3 40.0 in
  let t' =
    Ucode.Profile.transfer_copy t ~from_routine:"callee" ~into_routine:"caller"
      ~block_map:[ (0, 10); (1, 11) ] ~site_map:[ (3, 8) ] ~factor:0.25
  in
  Alcotest.(check (float 0.001)) "copied block scaled" 25.0
    (Ucode.Profile.block_count t' ~routine:"caller" ~block:10);
  Alcotest.(check (float 0.001)) "copied site scaled" 10.0
    (Ucode.Profile.site_count t' 8);
  Alcotest.(check (float 0.001)) "original untouched by transfer" 100.0
    (Ucode.Profile.block_count t' ~routine:"callee" ~block:0)

let test_profile_targets () =
  let t = Ucode.Profile.empty in
  let t = Ucode.Profile.add_target t 4 "f" 3.0 in
  let t = Ucode.Profile.add_target t 4 "g" 1.0 in
  let t = Ucode.Profile.add_target t 4 "f" 2.0 in
  let hist = Ucode.Profile.site_targets t 4 in
  Alcotest.(check (float 0.001)) "f count" 5.0 (List.assoc "f" hist);
  Alcotest.(check (float 0.001)) "g count" 1.0 (List.assoc "g" hist)

(* ------------------------------------------------------------------ *)
(* Linker.                                                             *)

let test_linker_mangles_statics () =
  let m1 = {| static func f(x) { return x; } func main() { return f(1); } |} in
  let m2 = {| static func f(x) { return x * 2; } func use2() { return f(2); } |} in
  let p, _ =
    Minic.Compile.compile_program
      [ Minic.Compile.source ~module_name:"a" m1;
        Minic.Compile.source ~module_name:"b" m2 ]
  in
  check_bool "a$f exists" true (U.find_routine p "a$f" <> None);
  check_bool "b$f exists" true (U.find_routine p "b$f" <> None);
  (* Each module's main/use2 calls its own static. *)
  let callee_of name =
    match U.calls_of_routine (U.find_routine_exn p name) with
    | [ (_, { U.c_callee = U.Direct n; _ }) ] -> n
    | _ -> Alcotest.fail "expected one direct call"
  in
  Alcotest.(check string) "main resolves locally" "a$f" (callee_of "main");
  Alcotest.(check string) "use2 resolves locally" "b$f" (callee_of "use2")

let test_linker_duplicate_export () =
  let m = {| func f() { return 1; } func main() { return 0; } |} in
  let m2 = {| func f() { return 2; } |} in
  Alcotest.check_raises "duplicate export"
    (Ucode.Linker.Link_error
       "routine f exported by both module a and module b") (fun () ->
      ignore
        (Minic.Compile.compile_program
           [ Minic.Compile.source ~module_name:"a" m;
             Minic.Compile.source ~module_name:"b" m2 ]))

(* Error paths that only hand-built module IR can reach (the front end
   rejects these shapes before the linker sees them).  Every message
   must name the offending module and symbol. *)

let tiny_routine ?(linkage = U.Exported) ?(body = []) name =
  { U.r_name = name; r_module = "ir"; r_params = [];
    r_blocks =
      [ { U.b_id = 0;
          b_instrs = U.Const (0, 0L) :: body;
          b_term = U.Return (Some 0) } ];
    r_next_reg = 1; r_next_label = 1; r_attrs = U.default_attrs;
    r_linkage = linkage; r_origin = U.From_source }

let test_linker_duplicate_in_module_definition () =
  let f = tiny_routine "f" in
  let m = { Ucode.Linker.m_name = "m";
            m_routines = [ f; f; tiny_routine "main" ]; m_globals = [] } in
  Alcotest.check_raises "duplicate routine"
    (Ucode.Linker.Link_error "routine f defined twice in module m")
    (fun () -> ignore (Ucode.Linker.link [ m ]));
  let g = { U.g_name = "g"; g_module = "m"; g_size = 1; g_init = [];
            g_linkage = U.Exported } in
  let m = { Ucode.Linker.m_name = "m";
            m_routines = [ tiny_routine "main" ]; m_globals = [ g; g ] } in
  Alcotest.check_raises "duplicate global"
    (Ucode.Linker.Link_error "global g defined twice in module m")
    (fun () -> ignore (Ucode.Linker.link [ m ]))

let test_linker_unresolved_reference () =
  let call =
    U.Call { U.c_dst = None; c_callee = U.Direct "nosuch"; c_args = [];
             c_site = 0 }
  in
  let m = { Ucode.Linker.m_name = "m";
            m_routines = [ tiny_routine ~body:[ call ] "main" ];
            m_globals = [] } in
  Alcotest.check_raises "undefined routine"
    (Ucode.Linker.Link_error "module m: reference to undefined routine nosuch")
    (fun () -> ignore (Ucode.Linker.link [ m ]));
  let m = { Ucode.Linker.m_name = "m";
            m_routines =
              [ tiny_routine ~body:[ U.Gaddr (0, "noglobal") ] "main" ];
            m_globals = [] } in
  Alcotest.check_raises "undefined global"
    (Ucode.Linker.Link_error "module m: reference to undefined global noglobal")
    (fun () -> ignore (Ucode.Linker.link [ m ]))

let test_linker_missing_main () =
  let m = { Ucode.Linker.m_name = "m"; m_routines = [ tiny_routine "f" ];
            m_globals = [] } in
  Alcotest.check_raises "no entry point"
    (Ucode.Linker.Link_error "no exported routine named main")
    (fun () -> ignore (Ucode.Linker.link [ m ]));
  (* A module-local routine with the right name is not an entry point. *)
  let m = { Ucode.Linker.m_name = "m";
            m_routines = [ tiny_routine ~linkage:U.Module_local "main" ];
            m_globals = [] } in
  Alcotest.check_raises "static main is not exported"
    (Ucode.Linker.Link_error "no exported routine named main")
    (fun () -> ignore (Ucode.Linker.link [ m ]))

let test_linker_renumbers_sites () =
  let m1 = {| func f() { return g(); } func main() { return f(); } |} in
  let m2 = {| func g() { print_int(1); return 0; } |} in
  let p, _ =
    Minic.Compile.compile_program
      [ Minic.Compile.source ~module_name:"a" m1;
        Minic.Compile.source ~module_name:"b" m2 ]
  in
  let sites =
    List.concat_map
      (fun r -> List.map (fun (_, c) -> c.U.c_site) (U.calls_of_routine r))
      p.U.p_routines
  in
  let sorted = List.sort_uniq compare sites in
  check_int "all sites distinct" (List.length sites) (List.length sorted);
  check_bool "next_site above all" true
    (List.for_all (fun s -> s < p.U.p_next_site) sites)

(* ------------------------------------------------------------------ *)
(* Pretty printer.                                                     *)

let test_pp_instrs () =
  let cases =
    [ (U.Const (1, 42L), "r1 = const 42");
      (U.Faddr (2, "f"), "r2 = faddr f");
      (U.Gaddr (3, "g"), "r3 = gaddr g");
      (U.Binop (4, U.Add, 1, 2), "r4 = add r1, r2");
      (U.Unop (5, U.Not, 1), "r5 = not r1");
      (U.Move (6, 5), "r6 = r5");
      (U.Load (7, 6), "r7 = load [r6]");
      (U.Store (6, 7), "store [r6] = r7");
      ( U.Call { c_dst = Some 8; c_callee = U.Direct "f"; c_args = [ 1; 2 ];
                 c_site = 9 },
        "r8 = call f(r1, r2) @site9" );
      ( U.Call { c_dst = None; c_callee = U.Indirect 3; c_args = [];
                 c_site = 0 },
        "call *r3() @site0" ) ]
  in
  List.iter
    (fun (i, expected) ->
      Alcotest.(check string) expected expected (Fmt.str "%a" Ucode.Pp.pp_instr i))
    cases;
  Alcotest.(check string) "jump" "jump L3"
    (Fmt.str "%a" Ucode.Pp.pp_term (U.Jump 3));
  Alcotest.(check string) "branch" "branch r1 ? L2 : L3"
    (Fmt.str "%a" Ucode.Pp.pp_term (U.Branch (1, 2, 3)));
  Alcotest.(check string) "return" "return r4"
    (Fmt.str "%a" Ucode.Pp.pp_term (U.Return (Some 4)))

let test_pp_program_mentions_everything () =
  let p = caller_callee_program () in
  let text = Ucode.Pp.program_to_string p in
  List.iter
    (fun needle ->
      check_bool ("mentions " ^ needle) true
        (let rec contains i =
           i + String.length needle <= String.length text
           && (String.sub text i (String.length needle) = needle
              || contains (i + 1))
         in
         contains 0))
    [ "callee"; "main"; "call callee" ]

(* ------------------------------------------------------------------ *)
(* Builtin shadowing: a user routine named like a builtin wins.        *)

let test_user_routine_shadows_builtin () =
  let src = {|
    func alloc(n) { return n * 100; }
    func main() { print_int(alloc(3)); return 0; }
  |} in
  let p = Minic.Compile.compile_string src in
  let ir = Interp.run p in
  Alcotest.(check string) "user alloc wins (interp)" "300\n" ir.Interp.output;
  let sim = Machine.Sim.run_program p in
  Alcotest.(check string) "user alloc wins (sim)" "300\n" sim.Machine.Sim.output

(* ------------------------------------------------------------------ *)
(* Routine-name index.                                                 *)

(* [Ucode.Index] must answer as the list scans do for every kind of name
   a whole-program loop looks up: each routine, each direct callee,
   each builtin and a name nothing defines.  [find] must return the
   very routine [U.find_routine] returns, so the first definition of a
   duplicated name wins. *)
let same_routine a b =
  match (a, b) with
  | Some (x : U.routine), Some y -> x == y
  | None, None -> true
  | _ -> false

let index_agrees (p : U.program) =
  let idx = Ucode.Index.of_program p in
  let callees (r : U.routine) =
    List.filter_map
      (fun (_, (c : U.call)) ->
        match c.U.c_callee with U.Direct n -> Some n | U.Indirect _ -> None)
      (U.calls_of_routine r)
  in
  let names =
    List.map (fun (r : U.routine) -> r.U.r_name) p.U.p_routines
    @ List.concat_map callees p.U.p_routines
    @ U.builtins @ [ "no$such$routine" ]
  in
  List.for_all
    (fun name ->
      let expected = U.find_routine p name in
      same_routine (Ucode.Index.find idx name) expected
      && Ucode.Index.mem idx name = (expected <> None)
      && Ucode.Index.arity idx name = U.arity_in_program p name
      &&
      match Ucode.Index.find_exn idx name with
      | r -> same_routine (Some r) expected
      | exception Invalid_argument _ -> expected = None)
    names

let prop_index_agrees =
  QCheck.Test.make ~count:100 ~name:"index agrees with the list scans"
    (QCheck.make
       ~print:(fun sh -> Prog_gen.print_sources (Prog_gen.render_shape sh))
       (Prog_gen.gen_shape Prog_gen.wild_opts))
    (fun sh ->
      index_agrees (fst (Minic.Compile.compile_program (Prog_gen.render_shape sh))))

(* A routine [name()] returning 7. *)
let nullary_routine ~fresh_site name =
  let b, _ = B.create ~name ~module_name:"m" ~nparams:0 ~fresh_site () in
  let l = B.fresh_label b in
  B.start_block b l;
  let k = B.const b 7L in
  B.seal b (U.Return (Some k));
  B.finish b

let test_index_duplicate_name () =
  let fresh_site, _ = B.site_counter () in
  let first = simple_routine ~fresh_site "callee" in
  let second = nullary_routine ~fresh_site "callee" in
  let alloc = nullary_routine ~fresh_site "alloc" in
  let main = U.find_routine_exn (caller_callee_program ()) "main" in
  let p = program_of [ first; alloc; second; main ] in
  let idx = Ucode.Index.of_program p in
  check_bool "first definition wins" true
    (same_routine (Ucode.Index.find idx "callee") (Some first));
  check_bool "arity of the first definition" true
    (Ucode.Index.arity idx "callee" = Some 1);
  check_bool "a routine shadows a builtin's arity" true
    (Ucode.Index.arity idx "alloc" = Some 0);
  check_bool "builtin arity falls back" true
    (Ucode.Index.arity idx "print_int" = Some 1);
  check_bool "agrees with the list scans" true (index_agrees p)

let () =
  Alcotest.run "ucode"
    [ ( "types",
        [ Alcotest.test_case "instr uses/def" `Quick test_instr_uses_def;
          Alcotest.test_case "map uses only" `Quick test_map_instr_uses_preserves_def;
          Alcotest.test_case "terminators" `Quick test_term_structure;
          Alcotest.test_case "iterators on all 14 workloads" `Quick
            test_iterators_on_workloads;
          QCheck_alcotest.to_alcotest prop_iterators_agree ] );
      ( "builder",
        [ Alcotest.test_case "basic" `Quick test_builder_basic;
          Alcotest.test_case "errors" `Quick test_builder_errors;
          Alcotest.test_case "entry zero" `Quick test_builder_entry_must_be_zero ] );
      ( "rename",
        [ Alcotest.test_case "copy offsets" `Quick test_copy_body_offsets;
          Alcotest.test_case "clone origin" `Quick test_copy_routine_origin ] );
      ( "size",
        [ Alcotest.test_case "cost model" `Quick test_cost_model ] );
      ( "validate",
        [ Alcotest.test_case "accepts good" `Quick test_validate_good;
          Alcotest.test_case "detects bad" `Quick test_validate_detects;
          Alcotest.test_case "duplicate sites" `Quick test_validate_duplicate_sites;
          Alcotest.test_case "error paths" `Quick test_validate_error_paths ] );
      ( "callgraph",
        [ Alcotest.test_case "edges" `Quick test_callgraph_edges;
          Alcotest.test_case "bottom-up order" `Quick test_callgraph_bottom_up;
          Alcotest.test_case "figure-5 classes" `Quick test_classification;
          Alcotest.test_case "mutual recursion" `Quick
            test_mutual_recursion_is_recursive ] );
      ( "index",
        [ Alcotest.test_case "duplicate name" `Quick test_index_duplicate_name;
          QCheck_alcotest.to_alcotest prop_index_agrees ] );
      ( "profile",
        [ Alcotest.test_case "basic" `Quick test_profile_basic;
          Alcotest.test_case "transfer" `Quick test_profile_transfer_conserves;
          Alcotest.test_case "targets" `Quick test_profile_targets ] );
      ( "pp",
        [ Alcotest.test_case "instructions" `Quick test_pp_instrs;
          Alcotest.test_case "program dump" `Quick
            test_pp_program_mentions_everything;
          Alcotest.test_case "builtin shadowing" `Quick
            test_user_routine_shadows_builtin ] );
      ( "linker",
        [ Alcotest.test_case "static mangling" `Quick test_linker_mangles_statics;
          Alcotest.test_case "duplicate export" `Quick test_linker_duplicate_export;
          Alcotest.test_case "duplicate in-module definition" `Quick
            test_linker_duplicate_in_module_definition;
          Alcotest.test_case "unresolved reference" `Quick
            test_linker_unresolved_reference;
          Alcotest.test_case "missing main" `Quick test_linker_missing_main;
          Alcotest.test_case "site renumbering" `Quick test_linker_renumbers_sites ] ) ]
