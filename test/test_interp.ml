(* Tests for the IR interpreter: builtins, traps, the fuel/depth
   limits, and the exactness of the profile database it collects. *)

module U = Ucode.Types
module B = Ucode.Builder

let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)
let check_float = Alcotest.(check (float 0.0001))

let compile src = Minic.Compile.compile_string src

let test_exit_code () =
  let r = Interp.run (compile "func main() { return 42; }") in
  check_bool "exit code" true (Int64.equal r.Interp.exit_code 42L)

let test_print_builtins () =
  let r =
    Interp.run
      (compile
         {| func main() {
              print_int(-7);
              print_char('h'); print_char('i'); print_char('\n');
              return 0;
            } |})
  in
  check_string "output" "-7\nhi\n" r.Interp.output

let test_alloc_sequential () =
  let src = {|
    func main() {
      var a = alloc(3);
      var b = alloc(2);
      print_int(b - a);
      return 0;
    }
  |} in
  check_string "bump allocation" "3\n" (Interp.run (compile src)).Interp.output

let test_fuel_limit () =
  let p = compile "func main() { while (1) { } return 0; }" in
  let config = { Interp.default_config with Interp.fuel = 10_000 } in
  match Interp.run ~config p with
  | exception Interp.Trap (Interp.Out_of_fuel, _) -> ()
  | _ -> Alcotest.fail "expected fuel trap"

let test_depth_limit () =
  let p =
    compile "func f(n) { return f(n + 1); } func main() { return f(0); }"
  in
  let config = { Interp.default_config with Interp.max_call_depth = 100 } in
  match Interp.run ~config p with
  | exception Interp.Trap (Interp.Call_depth_exceeded, _) -> ()
  | _ -> Alcotest.fail "expected depth trap"

let test_depth_recovers () =
  (* Deep-but-bounded recursion must not trip the limit when each call
     returns (the depth counter must be decremented on return). *)
  let src = {|
    func down(n) { if (n == 0) { return 0; } return down(n - 1); }
    func main() {
      var i = 0;
      while (i < 50) { down(90); i = i + 1; }
      print_int(i);
      return 0;
    }
  |} in
  let config = { Interp.default_config with Interp.max_call_depth = 100 } in
  check_string "depth recovers" "50\n"
    (Interp.run ~config (compile src)).Interp.output

let test_bad_handle () =
  let src = {|
    func main() {
      var f = 123456;
      return f(1);
    }
  |} in
  match Interp.run (compile src) with
  | exception Interp.Trap (Interp.Bad_function_handle _, _) -> ()
  | _ -> Alcotest.fail "expected bad handle trap"

let test_null_deref () =
  let src = "func main() { var p = 0; return p[0]; }" in
  match Interp.run (compile src) with
  | exception Interp.Trap (Interp.Out_of_bounds _, _) -> ()
  | _ -> Alcotest.fail "expected null deref trap"

(* ------------------------------------------------------------------ *)
(* Profile exactness.                                                  *)

let test_profile_counts_exact () =
  let src = {|
    func leaf(x) { return x + 1; }
    func main() {
      var s = 0;
      for (var i = 0; i < 7; i = i + 1) { s = leaf(s); }
      if (s > 100) { print_int(0); } else { print_int(s); }
      return 0;
    }
  |} in
  let p = compile src in
  let r = Interp.train p in
  let prof = r.Interp.profile in
  let leaf = U.find_routine_exn p "leaf" in
  let main = U.find_routine_exn p "main" in
  check_float "leaf entered 7 times" 7.0 (Ucode.Profile.entry_count prof leaf);
  check_float "main entered once" 1.0 (Ucode.Profile.entry_count prof main);
  (* The call site to leaf fired 7 times. *)
  let site =
    match U.calls_of_routine main with
    | sites -> (
      match
        List.find_opt
          (fun (_, c) -> c.U.c_callee = U.Direct "leaf")
          sites
      with
      | Some (_, c) -> c.U.c_site
      | None -> Alcotest.fail "no call to leaf")
  in
  check_float "site count" 7.0 (Ucode.Profile.site_count prof site)

let test_profile_indirect_targets () =
  let src = {|
    func a(x) { return x; }
    func b(x) { return x + 1; }
    func main() {
      var f = &a;
      var s = 0;
      for (var i = 0; i < 5; i = i + 1) {
        s = s + f(i);
        if (i == 2) { f = b; }
      }
      print_int(s);
      return 0;
    }
  |} in
  let p = compile src in
  let r = Interp.train p in
  let main = U.find_routine_exn p "main" in
  let site =
    match
      List.find_opt
        (fun (_, c) ->
          match c.U.c_callee with U.Indirect _ -> true | U.Direct _ -> false)
        (U.calls_of_routine main)
    with
    | Some (_, c) -> c.U.c_site
    | None -> Alcotest.fail "no indirect site"
  in
  let hist = Ucode.Profile.site_targets r.Interp.profile site in
  (* i = 0,1,2 call a; i = 3,4 call b. *)
  check_float "a count" 3.0 (List.assoc "a" hist);
  check_float "b count" 2.0 (List.assoc "b" hist)

let test_profile_block_flow_conservation () =
  (* For every routine, the entry count equals the number of dynamic
     invocations, which equals the sum of its incoming site counts
     (main gets one free invocation). *)
  let b = Workloads.Suite.find "026.compress" in
  let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
  let r = Interp.train p in
  let prof = r.Interp.profile in
  let cg = Ucode.Callgraph.build p in
  List.iter
    (fun (routine : U.routine) ->
      let entry = Ucode.Profile.entry_count prof routine in
      let incoming =
        List.fold_left
          (fun acc (e : Ucode.Callgraph.edge) ->
            acc +. Ucode.Profile.site_count prof e.Ucode.Callgraph.e_site)
          0.0
          (Ucode.Callgraph.incoming cg routine.U.r_name)
      in
      let expected =
        if routine.U.r_name = p.U.p_main then incoming +. 1.0 else incoming
      in
      (* Indirect calls also enter routines; account via target
         histograms. *)
      let indirect_entries =
        List.fold_left
          (fun acc (e : Ucode.Callgraph.edge) ->
            match e.Ucode.Callgraph.e_callee with
            | U.Indirect _ ->
              acc
              +. (List.assoc_opt routine.U.r_name
                    (Ucode.Profile.site_targets prof e.Ucode.Callgraph.e_site)
                 |> Option.value ~default:0.0)
            | U.Direct _ -> acc)
          0.0 cg.Ucode.Callgraph.cg_edges
      in
      check_float
        ("flow conservation for " ^ routine.U.r_name)
        (expected +. indirect_entries) entry)
    p.U.p_routines

let test_print_char_masks () =
  (* Values beyond a byte are masked, as the builtin documents. *)
  let src = "func main() { print_char(65 + 256); print_char(10); return 0; }" in
  check_string "masked to a byte" "A
" (Interp.run (compile src)).Interp.output

let test_alloc_zero_and_negative () =
  let ok = compile "func main() { var p = alloc(0); var q = alloc(1); print_int(q - p); return 0; }" in
  check_string "alloc(0) is a no-op" "0
" (Interp.run ok).Interp.output;
  let bad = compile "func main() { var p = alloc(0 - 5); return p; }" in
  match Interp.run bad with
  | exception Interp.Trap (Interp.Out_of_memory, _) -> ()
  | _ -> Alcotest.fail "negative alloc must trap"

(* A request near max_int must not overflow the room check and hand out
   cells on top of the globals. *)
let test_alloc_overflow () =
  let src = {|
    global g;
    func main() { var p = alloc(4611686018427387903); var q = alloc(1); return q; }
  |} in
  match Interp.run (compile src) with
  | exception Interp.Trap (Interp.Out_of_memory, _) -> ()
  | _ -> Alcotest.fail "a huge alloc must trap"

let test_indirect_arity_mismatch_traps () =
  let src = {|
    func two(a, b) { return a + b; }
    func main() {
      var f = &two;
      return f(1);
    }
  |} in
  match Interp.run (compile src) with
  | exception Interp.Trap (Interp.Indirect_arity_mismatch _, _) -> ()
  | _ -> Alcotest.fail "indirect arity mismatch must trap"

let test_division_by_zero () =
  let div = compile "func main() { var d = 0; return 1 / d; }" in
  (match Interp.run div with
  | exception Interp.Trap (Interp.Division_by_zero, _) -> ()
  | _ -> Alcotest.fail "expected division trap");
  let rem = compile "func main() { var d = 0; return 5 % d; }" in
  match Interp.run rem with
  | exception Interp.Trap (Interp.Division_by_zero, _) -> ()
  | _ -> Alcotest.fail "expected remainder trap"

let test_global_index_out_of_range () =
  let src = {|
    global ga[4];
    func main() { var i = 1000000; return ga[i * 1000]; }
  |} in
  match Interp.run (compile src) with
  | exception Interp.Trap (Interp.Out_of_bounds _, _) -> ()
  | _ -> Alcotest.fail "expected out-of-bounds trap"

(* ------------------------------------------------------------------ *)
(* Decoding stays lazy: names resolve as the definitions table did     *)
(* (last one wins), and an error fires only when its instruction runs. *)

(* A program of hand-built routines; [body] fills routine [name]'s
   blocks through the builder. *)
let program routines =
  let fresh_site, next_site = B.site_counter () in
  let routines =
    List.map
      (fun (name, nparams, body) ->
        let b, params =
          B.create ~name ~module_name:"m" ~nparams ~fresh_site ()
        in
        body b params;
        B.finish b)
      routines
  in
  { U.p_routines = routines; p_globals = []; p_main = "main";
    p_next_site = next_site () }

(* main: branch on [cond]; the taken side returns 7, the other runs
   [cold]. *)
let branchy ~cond cold =
  ( "main", 0,
    fun b _ ->
      B.start_block b 0;
      let c = B.const b cond in
      B.seal b (U.Branch (c, 1, 2));
      B.start_block b 1;
      B.seal b (U.Return (Some (B.const b 7L)));
      B.start_block b 2;
      cold b;
      B.seal b (U.Return None) )

let test_unknown_names_lazy () =
  let cold_instrs =
    [ ("faddr", fun b -> B.emit b (U.Faddr (B.fresh_reg b, "nowhere")));
      ("gaddr", fun b -> B.emit b (U.Gaddr (B.fresh_reg b, "nowhere")));
      ("call", fun b -> B.call b ~dst:None (U.Direct "nowhere") []) ]
  in
  List.iter
    (fun (what, cold) ->
      let r = Interp.run (program [ branchy ~cond:1L cold ]) in
      check_bool (what ^ " in a block never run") true
        (Int64.equal r.Interp.exit_code 7L);
      match Interp.run (program [ branchy ~cond:0L cold ]) with
      | exception Interp.Trap (Interp.Call_to_external "nowhere", "main") -> ()
      | _ -> Alcotest.fail (what ^ " of an unknown name must trap when run"))
    cold_instrs

(* A register past the routine's [r_next_reg] lies outside its frame.
   Reading or writing one raises [Invalid_argument], as an array index
   would, but only if the instruction runs; and only at the access, so
   a trap the instruction takes first still fires. *)
let test_bad_register_raises_when_run () =
  let past = 1000 in
  let cold_instrs =
    [ ("move from", (fun b -> B.emit b (U.Move (B.fresh_reg b, past))),
       Some (Invalid_argument "index out of bounds"));
      ("add into", (fun b ->
         B.emit b (U.Binop (past, U.Add, B.const b 1L, B.const b 2L))),
       Some (Invalid_argument "index out of bounds"));
      ("store through", (fun b -> B.emit b (U.Store (past, B.const b 1L))),
       Some (Invalid_argument "index out of bounds"));
      ("divide by zero into", (fun b ->
         B.emit b (U.Binop (past, U.Div, B.const b 1L, B.const b 0L))),
       Some (Interp.Trap (Interp.Division_by_zero, "main")));
      ("load from null into", (fun b ->
         B.emit b (U.Load (past, B.const b 0L))),
       Some (Interp.Trap (Interp.Out_of_bounds 0L, "main"))) ]
  in
  List.iter
    (fun (what, cold, raised) ->
      let r = Interp.run (program [ branchy ~cond:1L cold ]) in
      check_bool (what ^ " in a block never run") true
        (Int64.equal r.Interp.exit_code 7L);
      match Interp.run (program [ branchy ~cond:0L cold ]) with
      | exception e when Some e = raised -> ()
      | exception e -> Alcotest.fail (what ^ ": raised " ^ Printexc.to_string e)
      | _ -> Alcotest.fail (what ^ " past the frame must raise when run"))
    cold_instrs

let test_missing_label_raises_when_taken () =
  let prog cond =
    program
      [ ( "main", 0,
          fun b _ ->
            B.start_block b 0;
            let c = B.const b cond in
            B.seal b (U.Branch (c, 1, 99));
            B.start_block b 1;
            B.seal b (U.Return (Some (B.const b 7L))) ) ]
  in
  check_bool "untaken missing label" true
    (Int64.equal (Interp.run (prog 1L)).Interp.exit_code 7L);
  match Interp.run (prog 0L) with
  | exception Not_found -> ()
  | _ -> Alcotest.fail "a taken jump to a missing label must raise"

let test_routine_shadows_builtin () =
  let p =
    program
      [ ( "print_int", 1,
          fun b params ->
            B.start_block b 0;
            let one = B.const b 1L in
            let d = B.binop b U.Add (List.hd params) one in
            B.seal b (U.Return (Some d)) );
        ( "main", 0,
          fun b _ ->
            B.start_block b 0;
            let d = B.fresh_reg b in
            B.call b ~dst:(Some d) (U.Direct "print_int") [ B.const b 5L ];
            B.seal b (U.Return (Some d)) ) ]
  in
  let r = Interp.run p in
  check_string "builtin not run" "" r.Interp.output;
  check_bool "routine ran" true (Int64.equal r.Interp.exit_code 6L)

let test_duplicated_parameter () =
  let p =
    program
      [ ( "main", 0,
          fun b _ ->
            B.start_block b 0;
            let d = B.fresh_reg b in
            B.call b ~dst:(Some d) (U.Direct "f") [ B.const b 1L; B.const b 2L ];
            B.seal b (U.Return (Some d)) );
        ( "f", 0,
          fun b _ ->
            B.start_block b 0;
            B.seal b (U.Return (Some 0)) ) ]
  in
  let p =
    { p with
      U.p_routines =
        List.map
          (fun (r : U.routine) ->
            if r.U.r_name = "f" then { r with U.r_params = [ 0; 0 ]; r_next_reg = 1 }
            else r)
          p.U.p_routines }
  in
  check_bool "last argument wins" true
    (Int64.equal (Interp.run p).Interp.exit_code 2L)

let test_memory_fresh_after_trap () =
  let writer =
    compile "func main() { var p = alloc(10); p[3] = 42; abort(); return 0; }"
  in
  let reader = compile "func main() { var p = alloc(10); return p[3]; }" in
  (match Interp.run writer with
  | exception Interp.Trap (Interp.Aborted, _) -> ()
  | _ -> Alcotest.fail "expected the writer to abort");
  check_bool "memory zero after a trapped run" true
    (Int64.equal (Interp.run reader).Interp.exit_code 0L)

(* Memory is mapped per run at the configured size: an empty memory
   still runs a program that needs none, a large one reads zero where
   nothing was written, and a negative size is refused. *)
let test_memory_sizes () =
  let with_cells n = { Interp.default_config with Interp.memory_cells = n } in
  let run n src = Interp.run ~config:(with_cells n) (compile src) in
  check_bool "no memory, no alloc" true
    (Int64.equal (run 0 "func main() { return 7; }").Interp.exit_code 7L);
  (match run 0 "func main() { var p = alloc(1); return 0; }" with
  | exception Interp.Trap (Interp.Out_of_memory, _) -> ()
  | _ -> Alcotest.fail "expected alloc to exhaust an empty memory");
  let big =
    run (1 lsl 22)
      {| func main() {
           var p = alloc(4000000);
           p[3999999] = 5;
           return p[3999999] + p[2000000];
         } |}
  in
  check_bool "32 MB memory" true (Int64.equal big.Interp.exit_code 5L);
  match run (-1) "func main() { return 0; }" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected a negative memory size to be refused"

(* ------------------------------------------------------------------ *)
(* The run_outcome API: trap-time observable state.                    *)

let test_outcome_finished () =
  let src = {|
    global gs;
    func main() { gs = 5; print_int(gs); return 3; }
  |} in
  match Interp.run_outcome (compile src) with
  | Interp.Finished r ->
    check_bool "exit" true (Int64.equal r.Interp.exit_code 3L);
    check_string "output" "5\n" r.Interp.output;
    check_bool "final globals" true
      (List.exists
         (fun (n, cells) -> String.ends_with ~suffix:"gs" n && cells = [| 5L |])
         r.Interp.globals)
  | _ -> Alcotest.fail "expected Finished"

let test_outcome_partial_at_trap () =
  (* The trap must carry everything observed up to it: prior prints and
     prior global writes, but nothing after. *)
  let src = {|
    global gs;
    func main() {
      gs = 7;
      print_int(1);
      var d = 0;
      print_int(2 / d);
      gs = 9;
      return 0;
    }
  |} in
  match Interp.run_outcome (compile src) with
  | Interp.Trapped { trap = Interp.Division_by_zero; partial; _ } ->
    check_string "partial output" "1\n" partial.Interp.output;
    check_bool "globals at trap" true
      (List.exists
         (fun (n, cells) -> String.ends_with ~suffix:"gs" n && cells = [| 7L |])
         partial.Interp.globals)
  | Interp.Trapped { trap; _ } ->
    Alcotest.fail ("wrong trap: " ^ Interp.trap_message trap)
  | _ -> Alcotest.fail "expected Trapped"

let test_outcome_fuel_exhaustion () =
  let src = {|
    func main() {
      var i = 0;
      while (1) { print_int(i); i = i + 1; }
      return 0;
    }
  |} in
  let config = { Interp.default_config with Interp.fuel = 200 } in
  match Interp.run_outcome ~config (compile src) with
  | Interp.Trapped { trap = Interp.Out_of_fuel; partial; _ } ->
    check_bool "made progress before running dry" true
      (String.length partial.Interp.output > 0)
  | _ -> Alcotest.fail "expected fuel exhaustion outcome"

let test_steps_counted () =
  let r = Interp.run (compile "func main() { return 1 + 2; }") in
  check_bool "steps positive" true (r.Interp.steps > 0);
  check_bool "steps small" true (r.Interp.steps < 20)

let () =
  Alcotest.run "interp"
    [ ( "execution",
        [ Alcotest.test_case "exit code" `Quick test_exit_code;
          Alcotest.test_case "print builtins" `Quick test_print_builtins;
          Alcotest.test_case "alloc" `Quick test_alloc_sequential;
          Alcotest.test_case "steps" `Quick test_steps_counted ] );
      ( "traps",
        [ Alcotest.test_case "fuel" `Quick test_fuel_limit;
          Alcotest.test_case "depth" `Quick test_depth_limit;
          Alcotest.test_case "depth recovers" `Quick test_depth_recovers;
          Alcotest.test_case "bad handle" `Quick test_bad_handle;
          Alcotest.test_case "null deref" `Quick test_null_deref;
          Alcotest.test_case "print_char masks" `Quick test_print_char_masks;
          Alcotest.test_case "alloc edge cases" `Quick
            test_alloc_zero_and_negative;
          Alcotest.test_case "alloc overflow" `Quick test_alloc_overflow;
          Alcotest.test_case "indirect arity trap" `Quick
            test_indirect_arity_mismatch_traps;
          Alcotest.test_case "division by zero" `Quick test_division_by_zero;
          Alcotest.test_case "global index out of range" `Quick
            test_global_index_out_of_range ] );
      ( "decoding",
        [ Alcotest.test_case "unknown names trap only when run" `Quick
            test_unknown_names_lazy;
          Alcotest.test_case "bad register raises only when run" `Quick
            test_bad_register_raises_when_run;
          Alcotest.test_case "missing label raises only when taken" `Quick
            test_missing_label_raises_when_taken;
          Alcotest.test_case "routine shadows builtin" `Quick
            test_routine_shadows_builtin;
          Alcotest.test_case "duplicated parameter" `Quick
            test_duplicated_parameter;
          Alcotest.test_case "memory sizes" `Quick test_memory_sizes;
          Alcotest.test_case "memory fresh after a trap" `Quick
            test_memory_fresh_after_trap ] );
      ( "outcomes",
        [ Alcotest.test_case "finished" `Quick test_outcome_finished;
          Alcotest.test_case "partial state at trap" `Quick
            test_outcome_partial_at_trap;
          Alcotest.test_case "fuel exhaustion" `Quick
            test_outcome_fuel_exhaustion ] );
      ( "profile",
        [ Alcotest.test_case "exact counts" `Quick test_profile_counts_exact;
          Alcotest.test_case "indirect targets" `Quick
            test_profile_indirect_targets;
          Alcotest.test_case "flow conservation" `Quick
            test_profile_block_flow_conservation ] ) ]
