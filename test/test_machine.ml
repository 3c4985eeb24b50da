(* Tests for the machine back end: the cache model, the branch
   predictor, register allocation, code layout, and the simulator's
   agreement with the IR interpreter. *)

module U = Ucode.Types
module V = Machine.Vinsn
module R = Machine.Regalloc

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let compile src = Minic.Compile.compile_string src

(* ------------------------------------------------------------------ *)
(* Cache model.                                                        *)

let test_cache_direct_mapped_conflict () =
  let c = Machine.Cache.create { Machine.Cache.sets = 4; assoc = 1; line_words = 4 } in
  (* Addresses 0 and 64 map to the same set (64/4 = line 16, 16 mod 4 = 0). *)
  check_bool "cold miss" false (Machine.Cache.access c 0);
  check_bool "same line hits" true (Machine.Cache.access c 1);
  check_bool "conflict evicts" false (Machine.Cache.access c 64);
  check_bool "original gone" false (Machine.Cache.access c 0);
  check_int "accesses" 4 c.Machine.Cache.accesses;
  check_int "misses" 3 c.Machine.Cache.misses

let test_cache_two_way_lru () =
  let c = Machine.Cache.create { Machine.Cache.sets = 2; assoc = 2; line_words = 1 } in
  (* Lines 0, 2, 4 all map to set 0. *)
  ignore (Machine.Cache.access c 0);  (* miss, way A *)
  ignore (Machine.Cache.access c 2);  (* miss, way B *)
  check_bool "0 still resident" true (Machine.Cache.access c 0);
  (* LRU is now line 2; inserting line 4 evicts it. *)
  check_bool "4 misses" false (Machine.Cache.access c 4);
  check_bool "0 survived (not LRU)" true (Machine.Cache.access c 0);
  check_bool "2 was evicted" false (Machine.Cache.access c 2)

let test_cache_size_and_reset () =
  let c = Machine.Cache.create { Machine.Cache.sets = 8; assoc = 2; line_words = 4 } in
  check_int "size" 64 (Machine.Cache.size_words c);
  ignore (Machine.Cache.access c 5);
  Machine.Cache.reset c;
  check_int "reset accesses" 0 c.Machine.Cache.accesses;
  check_bool "cold after reset" false (Machine.Cache.access c 5)

(* Crediting repeat accesses in bulk leaves the cache as the accesses
   themselves would have: same counters, same later hits and misses. *)
let test_cache_add_repeats () =
  let cfg = { Machine.Cache.sets = 48; assoc = 1; line_words = 6 } in
  let direct = Machine.Cache.create cfg and bulk = Machine.Cache.create cfg in
  Alcotest.check_raises "nothing to repeat"
    (Invalid_argument "Cache.add_repeats: no line touched")
    (fun () -> Machine.Cache.add_repeats bulk 1);
  List.iter
    (fun a -> ignore (Machine.Cache.access direct a))
    [ 7; 6; 8; 11; 6; 300; 7 ];
  List.iter (fun a -> ignore (Machine.Cache.access bulk a)) [ 7; 300; 7 ];
  Machine.Cache.add_repeats bulk 4;
  check_int "accesses" direct.Machine.Cache.accesses bulk.Machine.Cache.accesses;
  check_int "misses" direct.Machine.Cache.misses bulk.Machine.Cache.misses;
  List.iter
    (fun a ->
      check_bool (Printf.sprintf "access %d" a) (Machine.Cache.access direct a)
        (Machine.Cache.access bulk a))
    [ 11; 288 + 7; 7; 300; 12 ]

(* The straightforward true-LRU cache, kept as the reference model:
   every access stamps its way with a fresh clock value and a miss
   evicts the way with the oldest stamp (an empty way has stamp 0). *)
module Lru_model = struct
  type t = {
    cfg : Machine.Cache.config;
    tags : int array array;
    stamps : int array array;
    mutable clock : int;
    mutable accesses : int;
    mutable misses : int;
  }

  let create (cfg : Machine.Cache.config) =
    { cfg;
      tags = Array.init cfg.sets (fun _ -> Array.make cfg.assoc (-1));
      stamps = Array.init cfg.sets (fun _ -> Array.make cfg.assoc 0);
      clock = 0; accesses = 0; misses = 0 }

  let access t addr =
    t.clock <- t.clock + 1;
    t.accesses <- t.accesses + 1;
    let line = addr / t.cfg.line_words in
    let tags = t.tags.(line mod t.cfg.sets) in
    let stamps = t.stamps.(line mod t.cfg.sets) in
    let tag = line / t.cfg.sets in
    let rec find w =
      if w >= t.cfg.assoc then None
      else if tags.(w) = tag then Some w
      else find (w + 1)
    in
    match find 0 with
    | Some w ->
      stamps.(w) <- t.clock;
      true
    | None ->
      t.misses <- t.misses + 1;
      let victim = ref 0 in
      for w = 1 to t.cfg.assoc - 1 do
        if stamps.(w) < stamps.(!victim) then victim := w
      done;
      tags.(!victim) <- tag;
      stamps.(!victim) <- t.clock;
      false
end

(* Geometries with power-of-two and other set counts and line sizes,
   and address streams of sequential runs (which repeat lines, the
   cache's fast path), repeats and jumps, split by a reset. *)
let gen_cache_stream =
  let open QCheck.Gen in
  let geometry =
    map3
      (fun sets assoc line_words -> { Machine.Cache.sets; assoc; line_words })
      (oneofl [ 1; 2; 4; 12; 16; 48; 64 ])
      (int_range 1 4)
      (oneofl [ 1; 2; 3; 4; 8 ])
  in
  let segment =
    frequency
      [ (3, map2 (fun start len -> List.init len (fun i -> start + i))
             (int_bound 4096) (int_range 1 24));
        (2, map2 (fun a n -> List.init n (fun _ -> a)) (int_bound 4096)
             (int_range 1 4));
        (2, map (fun a -> [ a ]) (int_bound 100_000)) ]
  in
  let stream = map List.concat (list_size (int_range 1 40) segment) in
  triple geometry stream stream

let prop_cache_matches_lru_model =
  QCheck.Test.make ~count:300 ~name:"cache matches the true-LRU model"
    (QCheck.make gen_cache_stream)
    (fun (cfg, before, after) ->
      let c = Machine.Cache.create cfg in
      let agree addrs =
        let m = Lru_model.create cfg in
        List.for_all
          (fun a -> Machine.Cache.access c a = Lru_model.access m a)
          addrs
        && c.Machine.Cache.accesses = m.Lru_model.accesses
        && c.Machine.Cache.misses = m.Lru_model.misses
      in
      (* After a reset the last line of the first stream is cold again. *)
      let last = List.nth before (List.length before - 1) in
      agree before
      && begin
           Machine.Cache.reset c;
           agree (last :: after)
         end)

(* ------------------------------------------------------------------ *)
(* Branch predictor.                                                   *)

let test_predictor_learns_loop () =
  let p = Machine.Branch_predictor.create ~entries:16 () in
  (* A loop branch taken 10 times then not taken: the 2-bit counter
     should mispredict at most twice at the start and once at the end. *)
  let wrong = ref 0 in
  for _ = 1 to 10 do
    if not (Machine.Branch_predictor.conditional p ~pc:3 ~taken:true) then
      incr wrong
  done;
  if not (Machine.Branch_predictor.conditional p ~pc:3 ~taken:false) then
    incr wrong;
  check_bool "few mispredicts" true (!wrong <= 3);
  check_int "branches counted" 11 p.Machine.Branch_predictor.branches

let test_predictor_collisions () =
  let p = Machine.Branch_predictor.create ~entries:4 () in
  (* pcs 1 and 5 collide (5 mod 4 = 1): alternating opposite outcomes
     keep flipping the shared counter — high miss rate, as the paper
     warns for branch-table collisions. *)
  let wrong = ref 0 in
  for _ = 1 to 20 do
    if not (Machine.Branch_predictor.conditional p ~pc:1 ~taken:true) then incr wrong;
    if not (Machine.Branch_predictor.conditional p ~pc:5 ~taken:false) then incr wrong
  done;
  check_bool "collisions hurt" true (!wrong >= 15)

(* The table is indexed by the low bits of the address, so only a
   power-of-two size uses every counter; any other is refused. *)
let test_predictor_power_of_two () =
  List.iter
    (fun entries ->
      let p = Machine.Branch_predictor.create ~entries () in
      check_int "counters" entries
        (Array.length p.Machine.Branch_predictor.counters))
    [ 1; 2; 16; 256 ];
  List.iter
    (fun entries ->
      Alcotest.check_raises (Printf.sprintf "%d entries" entries)
        (Invalid_argument
           "Branch_predictor.create: entries must be a power of two")
        (fun () -> ignore (Machine.Branch_predictor.create ~entries ())))
    [ 0; -4; 3; 100; 255 ]

let test_predictor_returns_always_miss () =
  let p = Machine.Branch_predictor.create () in
  Machine.Branch_predictor.always_mispredicted p;
  Machine.Branch_predictor.always_mispredicted p;
  Machine.Branch_predictor.unconditional p;
  check_int "mispredicts" 2 p.Machine.Branch_predictor.mispredicts;
  check_int "branches" 3 p.Machine.Branch_predictor.branches

(* ------------------------------------------------------------------ *)
(* Register allocation.                                                *)

let test_regalloc_all_allocated () =
  let p = compile {|
    func f(a, b, c) {
      var x = a + b;
      var y = b + c;
      return x * y;
    }
    func main() { return f(1, 2, 3); }
  |} in
  let f = U.find_routine_exn p "f" in
  let alloc = R.allocate f in
  (* Every register that occurs has a location. *)
  List.iter
    (fun (blk : U.block) ->
      List.iter
        (fun i ->
          List.iter (fun v -> ignore (R.location alloc v)) (U.instr_uses i);
          Option.iter (fun v -> ignore (R.location alloc v)) (U.instr_def i))
        blk.U.b_instrs)
    f.U.r_blocks;
  check_int "small routine spills nothing" 0 alloc.R.nspills

let test_regalloc_call_crossing_goes_callee_saved () =
  let p = compile {|
    func g(x) { return x; }
    func f(keep) {
      var r = g(1);
      return keep + r;
    }
    func main() { return f(5); }
  |} in
  let f = U.find_routine_exn p "f" in
  let alloc = R.allocate f in
  (* [keep] is live across the call to g: it must sit in a callee-saved
     register or a spill slot, never caller-saved. *)
  let keep = List.hd f.U.r_params in
  (match R.location alloc keep with
  | R.Preg r -> check_bool "callee-saved" true (R.is_callee_saved r)
  | R.Spill _ -> ());
  check_bool "prologue saves something" true
    (alloc.R.used_callee_saved <> [])

let test_regalloc_reuses_registers () =
  (* A long chain of short-lived temporaries must fit in few registers:
     interval reuse keeps pressure constant. *)
  let stmts =
    String.concat "\n"
      (List.init 60 (fun i -> Printf.sprintf "s = s + %d * 2;" i))
  in
  let src = Printf.sprintf "func main() { var s = 0; %s print_int(s); return 0; }" stmts in
  let p = compile src in
  let main = U.find_routine_exn p "main" in
  let alloc = R.allocate main in
  check_int "no spills despite 100+ virtuals" 0 alloc.R.nspills

let test_regalloc_spills_under_pressure () =
  (* Many simultaneously-live values must overflow into spill slots. *)
  let n = 40 in
  let decls =
    String.concat "\n"
      (List.init n (fun i -> Printf.sprintf "var v%d = g + %d;" i i))
  in
  let uses =
    String.concat " + " (List.init n (fun i -> Printf.sprintf "v%d" i))
  in
  let src =
    Printf.sprintf
      "global g = 1;\nfunc main() { %s\n print_int(%s); return 0; }" decls uses
  in
  let p = compile src in
  let main = U.find_routine_exn p "main" in
  let alloc = R.allocate main in
  check_bool "spills happen" true (alloc.R.nspills > 0);
  (* And the program still runs correctly through the machine. *)
  let ir = Interp.run p in
  let sim = Machine.Sim.run_program p in
  check_string "spill correctness" ir.Interp.output sim.Machine.Sim.output

(* ------------------------------------------------------------------ *)
(* Layout.                                                             *)

let test_layout_structure () =
  let p = compile {|
    func helper(x) { return x + 1; }
    func main() { return helper(41); }
  |} in
  let image = Machine.Layout.build p in
  check_bool "halt stub at 0" true
    (image.Machine.Layout.code.(Machine.Layout.halt_address) = V.Mhalt);
  let entry name = List.assoc name image.Machine.Layout.entries in
  check_bool "entries distinct" true (entry "helper" <> entry "main");
  check_bool "main entry recorded" true
    (image.Machine.Layout.main_entry = entry "main");
  (* All branch targets resolved. *)
  Array.iter
    (fun insn ->
      match insn with
      | V.Mjmp t | V.Mbeqz (_, t) | V.Mbnez (_, t) | V.Mcall t -> (
        match t with
        | V.Taddr _ -> ()
        | _ -> Alcotest.fail "unresolved target after layout")
      | V.Mla _ -> Alcotest.fail "unresolved Mla after layout"
      | _ -> ())
    image.Machine.Layout.code

let test_layout_data_matches_interp () =
  (* Globals must land at the same cells in both engines; observable
     via address arithmetic between two globals. *)
  let src = {|
    global a[3];
    global b;
    func main() {
      print_int(&b - &a);
      return 0;
    }
  |} in
  let p = compile src in
  let ir = Interp.run p in
  let sim = Machine.Sim.run_program p in
  check_string "same layout" ir.Interp.output sim.Machine.Sim.output;
  check_string "gap is the array size" "3\n" ir.Interp.output

(* ------------------------------------------------------------------ *)
(* Simulator.                                                          *)

let test_sim_metrics_sane () =
  let p = compile {|
    func main() {
      var s = 0;
      for (var i = 0; i < 100; i = i + 1) { s = s + i; }
      print_int(s);
      return 0;
    }
  |} in
  let r = Machine.Sim.run_program p in
  let m = r.Machine.Sim.metrics in
  check_string "output" "4950\n" r.Machine.Sim.output;
  check_bool "cycles >= instructions" true
    (m.Machine.Metrics.cycles >= m.Machine.Metrics.instructions);
  check_int "icache accesses = instructions" m.Machine.Metrics.instructions
    m.Machine.Metrics.icache_accesses;
  check_bool "cpi >= 1" true (Machine.Metrics.cpi m >= 1.0);
  check_bool "some branches" true (m.Machine.Metrics.branches > 0);
  check_bool "misses within accesses" true
    (m.Machine.Metrics.dcache_misses <= m.Machine.Metrics.dcache_accesses)

let test_sim_traps () =
  let trap_of src =
    match Machine.Sim.run_program (compile src) with
    | exception Machine.Sim.Trap (t, _) -> Some t
    | _ -> None
  in
  check_bool "div by zero" true
    (trap_of "func main() { var z = 0; return 1 / z; }"
    = Some Machine.Sim.Division_by_zero);
  check_bool "abort" true
    (trap_of "func main() { abort(); return 0; }" = Some Machine.Sim.Aborted);
  (match trap_of "func f(n) { return f(n + 1); } func main() { return f(0); }" with
  | Some Machine.Sim.Stack_overflow -> ()
  | _ -> Alcotest.fail "expected stack overflow");
  (* A request near max_int must not overflow the room check. *)
  check_bool "huge alloc" true
    (trap_of
       "global g; func main() { var p = alloc(4611686018427387903); var q = alloc(1); return q; }"
    = Some Machine.Sim.Out_of_memory);
  (match trap_of "global a[2]; func main() { return a[9999999]; }" with
  | Some (Machine.Sim.Memory_fault _) -> ()
  | _ -> Alcotest.fail "expected memory fault");
  (* An address past 2^62 is out of range even though its low 63 bits
     are not; both engines must trap on it. *)
  let far = "global a[2]; func main() { var k = 1 << 62; return a[k]; }" in
  (match trap_of far with
  | Some (Machine.Sim.Memory_fault _) -> ()
  | _ -> Alcotest.fail "expected memory fault on a far address");
  match Interp.run (compile far) with
  | exception Interp.Trap (Interp.Out_of_bounds _, _) -> ()
  | _ -> Alcotest.fail "expected the interpreter to trap on a far address"

(* Simulate a hand-built image whose [main] starts at address 1, after
   the halt its return lands on. *)
let run_code code =
  ignore
    (Machine.Sim.run
       { Machine.Layout.code; entries = [ ("main", 1) ];
         routine_extent = [ ("main", (1, Array.length code)) ];
         global_bases = []; data_break = 1; global_init = []; main_entry = 1 })

(* A layout that left a symbolic target behind is rejected before the
   first instruction runs, even where that instruction is never
   reached. *)
let test_sim_rejects_unresolved_targets () =
  let run = run_code in
  run [| V.Mhalt; V.Mli (R.result_reg, 7L); V.Mjmp (V.Taddr 0) |];
  Alcotest.check_raises "unreached Tlocal branch"
    (Invalid_argument "Sim.run: unresolved branch target (layout bug)")
    (fun () -> run [| V.Mhalt; V.Mjmp (V.Taddr 0); V.Mjmp (V.Tlocal 0) |]);
  Alcotest.check_raises "unreached Mla"
    (Invalid_argument "Sim.run: unresolved Mla (layout bug)")
    (fun () ->
      run [| V.Mhalt; V.Mjmp (V.Taddr 0); V.Mla (R.result_reg, V.Tglobal "g") |])

(* So does an image naming a register outside the 32 of the file: the
   run loop reads and writes registers unchecked. *)
let test_sim_rejects_bad_registers () =
  let run = run_code in
  run [| V.Mhalt; V.Mmov (R.result_reg, 31); V.Mjmp (V.Taddr 0) |];
  List.iter
    (fun (what, insn, msg) ->
      Alcotest.check_raises what (Invalid_argument msg) (fun () ->
          run [| V.Mhalt; V.Mjmp (V.Taddr 0); insn |]))
    [ ("unreached r32 source", V.Mmov (R.result_reg, 32),
       "Sim.run: register r32 out of range at 2");
      ("unreached r32 destination", V.Mli (32, 1L),
       "Sim.run: register r32 out of range at 2");
      ("unreached negative store base", V.Mstore (-1, 0, R.result_reg),
       "Sim.run: register r-1 out of range at 2");
      ("unreached r40 branch", V.Mbnez (40, V.Taddr 0),
       "Sim.run: register r40 out of range at 2") ]

(* Runs reuse their domain's decode arrays and data pages.  Every run
   must still start from zeroed memory and execute only its own image:
   after a larger image, after a trap, and across memory sizes.  The
   reader writes a cell in each page it then sums, so it runs on pages
   an earlier run wrote. *)
let test_sim_runs_start_clean () =
  let writer body =
    compile
      ({|
    global a[9000];
    func fill(n) { if (n == 0) { return 0; } a[n] = n; return fill(n - 1) + 1; }
    func main() {
      for (var i = 0; i < 9000; i = i + 1) { a[i] = i + 1; }
      print_int(fill(200));
      |} ^ body ^ " }")
  in
  let reader =
    compile {|
    global a[9000];
    func main() {
      var s = 0;
      for (var i = 0; i < 9000; i = i + 1000) { a[i] = 0; }
      for (var i = 0; i < 9000; i = i + 1) { s = s + a[i]; }
      print_int(s);
      return s;
    }
  |}
  in
  let run ?config p = Machine.Sim.run ?config (Machine.Layout.build p) in
  let same what (r : Machine.Sim.result) (r' : Machine.Sim.result) =
    check_string (what ^ ": output") r.Machine.Sim.output r'.Machine.Sim.output;
    check_bool (what ^ ": metrics") true (r.Machine.Sim.metrics = r'.Machine.Sim.metrics)
  in
  let clean = run reader in
  check_string "unwritten memory reads 0" "0\n" clean.Machine.Sim.output;
  let wrote = run (writer "return 0;") in
  same "reader after a larger writer" clean (run reader);
  (match run (writer "var z = 0; return 1 / z;") with
  | exception Machine.Sim.Trap (Machine.Sim.Division_by_zero, _) -> ()
  | _ -> Alcotest.fail "expected the writer to trap");
  same "reader after a trapped writer" clean (run reader);
  let small = { Machine.Sim.default_config with Machine.Sim.memory_cells = 1 lsl 16 } in
  check_string "a smaller memory" "0\n" (run ~config:small reader).Machine.Sim.output;
  same "writer again" wrote (run (writer "return 0;"))

let test_sim_instruction_limit () =
  let p = compile "func main() { while (1) { } return 0; }" in
  let config =
    { Machine.Sim.default_config with Machine.Sim.max_instructions = 5000 }
  in
  match Machine.Sim.run ~config (Machine.Layout.build p) with
  | exception Machine.Sim.Trap (Machine.Sim.Out_of_instructions, _) -> ()
  | _ -> Alcotest.fail "expected instruction limit trap"

let test_sim_indirect_calls () =
  let src = {|
    func a(x) { return x * 2; }
    func b(x) { return x + 100; }
    func pick(n) {
      if (n & 1) { return &a; }
      return &b;
    }
    func main() {
      var s = 0;
      for (var i = 0; i < 10; i = i + 1) {
        var f = pick(i);
        s = s + f(i);
      }
      print_int(s);
      return 0;
    }
  |} in
  let p = compile src in
  let ir = Interp.run p in
  let sim = Machine.Sim.run_program p in
  check_string "indirect calls agree" ir.Interp.output sim.Machine.Sim.output

let test_sim_call_overhead_visible () =
  (* The same computation with and without a call must differ in
     D-cache accesses: argument/return traffic is real memory traffic. *)
  let with_call = compile {|
    func add(a, b) { return a + b; }
    func main() {
      var s = 0;
      for (var i = 0; i < 1000; i = i + 1) { s = add(s, i); }
      print_int(s);
      return 0;
    }
  |} in
  let without_call = compile {|
    func main() {
      var s = 0;
      for (var i = 0; i < 1000; i = i + 1) { s = s + i; }
      print_int(s);
      return 0;
    }
  |} in
  let m1 = (Machine.Sim.run_program with_call).Machine.Sim.metrics in
  let m2 = (Machine.Sim.run_program without_call).Machine.Sim.metrics in
  check_bool "call version touches memory more" true
    (m1.Machine.Metrics.dcache_accesses
    > m2.Machine.Metrics.dcache_accesses + 2000);
  check_bool "call version runs more instructions" true
    (m1.Machine.Metrics.instructions > m2.Machine.Metrics.instructions)

let test_sim_agrees_on_fixture_programs () =
  (* A grab bag of shapes: nested calls, arity mismatch, globals,
     short-circuit, early returns, deep-ish recursion. *)
  let fixtures =
    [ {| func main() { print_int(0 - 9223372036854775807); return 0; } |};
      {| func fib(n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
         func main() { print_int(fib(15)); return 0; } |};
      {| func v(a, b, c) { return a * 100 + b * 10 + c; }
         func main() { print_int(v(1, 2)); print_int(v(1, 2, 3, 4)); return 0; } |};
      {| global acc;
         func tick() { acc = acc + 1; return acc; }
         func main() {
           var x = tick() && tick() || tick();
           print_int(x); print_int(acc);
           return 0;
         } |};
      {| func main() {
           var p = alloc(10);
           for (var i = 0; i < 10; i = i + 1) { p[i] = i * i; }
           var s = 0;
           for (var i = 0; i < 10; i = i + 1) { s = s + p[i]; }
           print_int(s);
           return 0;
         } |} ]
  in
  List.iter
    (fun src ->
      let p = compile src in
      let ir = Interp.run p in
      let sim = Machine.Sim.run_program p in
      check_string "fixture agrees" ir.Interp.output sim.Machine.Sim.output)
    fixtures

(* ------------------------------------------------------------------ *)
(* Profile-guided code positioning (Pettis-Hansen).                    *)

let positioning_fixture () =
  let src = {|
    func hot_leaf(x) { return x * 3 + 1; }
    func cold_leaf(x) { return x * 5 + 2; }
    func middle(x) { return hot_leaf(x) + 1; }
    func main() {
      var s = 0;
      for (var i = 0; i < 500; i = i + 1) { s = s + middle(i); }
      s = s + cold_leaf(s);
      print_int(s & 1048575);
      return 0;
    }
  |} in
  let p = compile src in
  let profile = (Interp.train p).Interp.profile in
  (p, profile)

let test_positioning_orders_hot_pairs_adjacent () =
  let p, profile = positioning_fixture () in
  let order = Machine.Positioning.order p profile in
  let pos n =
    let rec find i = function
      | [] -> max_int
      | x :: _ when x = n -> i
      | _ :: tl -> find (i + 1) tl
    in
    find 0 order
  in
  Alcotest.(check int) "all routines placed" 4 (List.length order);
  (* main/middle and middle/hot_leaf are the heavy pairs; cold_leaf
     must not sit between them. *)
  check_bool "hot chain adjacent" true
    (abs (pos "middle" - pos "hot_leaf") = 1);
  check_bool "cold leaf last" true (pos "cold_leaf" = 3)

let test_positioning_edge_weights () =
  let p, profile = positioning_fixture () in
  let weights = Machine.Positioning.edge_weights p profile in
  (* Heaviest pairs first; main<->middle and middle<->hot_leaf carry
     the 500-iteration loop. *)
  (match weights with
  | ((a1, b1), w1) :: ((a2, b2), w2) :: _ ->
    check_bool "top weight is the loop" true (w1 >= 500.0 && w2 >= 500.0);
    check_bool "pairs involve middle" true
      (List.mem "middle" [ a1; b1 ] && List.mem "middle" [ a2; b2 ])
  | _ -> Alcotest.fail "expected at least two weighted edges");
  (* cold_leaf's single call weighs 1. *)
  let cold =
    List.find_opt (fun ((a, b), _) -> a = "cold_leaf" || b = "cold_leaf") weights
  in
  match cold with
  | Some (_, w) -> Alcotest.(check (float 0.001)) "cold weight" 1.0 w
  | None -> Alcotest.fail "cold edge missing"

let test_positioning_preserves_semantics () =
  let p, profile = positioning_fixture () in
  let reordered = Machine.Positioning.apply p profile in
  (match Ucode.Validate.check_program reordered with
  | [] -> ()
  | errors -> Alcotest.fail (Ucode.Validate.errors_to_string errors));
  let a = Machine.Sim.run_program p in
  let b = Machine.Sim.run_program reordered in
  check_string "same output" a.Machine.Sim.output b.Machine.Sim.output;
  Alcotest.(check int) "same routine count"
    (List.length p.Ucode.Types.p_routines)
    (List.length reordered.Ucode.Types.p_routines)

let test_positioning_empty_profile_is_identity_safe () =
  let p, _ = positioning_fixture () in
  let reordered = Machine.Positioning.apply p Ucode.Profile.empty in
  let a = Machine.Sim.run_program p in
  let b = Machine.Sim.run_program reordered in
  check_string "still runs" a.Machine.Sim.output b.Machine.Sim.output

let test_positioning_helps_tight_icache () =
  (* On the workload where the ablation shows the effect, a conflicting
     direct-mapped I-cache must see fewer misses after positioning. *)
  let b = Workloads.Suite.find "124.m88ksim" in
  let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
  let profile = (Interp.train p).Interp.profile in
  let res = Hlo.Driver.run ~profile p in
  let optimized = res.Hlo.Driver.program in
  let trained = (Interp.train optimized).Interp.profile in
  let config =
    { Machine.Sim.default_config with
      Machine.Sim.icache = { Machine.Cache.sets = 48; assoc = 1; line_words = 8 } }
  in
  let base = Machine.Sim.run ~config (Machine.Layout.build optimized) in
  let positioned =
    Machine.Sim.run ~config
      (Machine.Layout.build (Machine.Positioning.apply optimized trained))
  in
  check_string "same output" base.Machine.Sim.output
    positioned.Machine.Sim.output;
  check_bool "fewer icache misses" true
    (positioned.Machine.Sim.metrics.Machine.Metrics.icache_misses
    < base.Machine.Sim.metrics.Machine.Metrics.icache_misses)

let () =
  Alcotest.run "machine"
    [ ( "cache",
        [ Alcotest.test_case "direct-mapped conflicts" `Quick
            test_cache_direct_mapped_conflict;
          Alcotest.test_case "two-way LRU" `Quick test_cache_two_way_lru;
          Alcotest.test_case "size and reset" `Quick test_cache_size_and_reset;
          Alcotest.test_case "repeats credited in bulk" `Quick
            test_cache_add_repeats;
          QCheck_alcotest.to_alcotest prop_cache_matches_lru_model ] );
      ( "predictor",
        [ Alcotest.test_case "learns a loop" `Quick test_predictor_learns_loop;
          Alcotest.test_case "collisions" `Quick test_predictor_collisions;
          Alcotest.test_case "power-of-two entries" `Quick
            test_predictor_power_of_two;
          Alcotest.test_case "returns always miss" `Quick
            test_predictor_returns_always_miss ] );
      ( "regalloc",
        [ Alcotest.test_case "all allocated" `Quick test_regalloc_all_allocated;
          Alcotest.test_case "call crossing" `Quick
            test_regalloc_call_crossing_goes_callee_saved;
          Alcotest.test_case "register reuse" `Quick test_regalloc_reuses_registers;
          Alcotest.test_case "spills under pressure" `Quick
            test_regalloc_spills_under_pressure ] );
      ( "layout",
        [ Alcotest.test_case "structure" `Quick test_layout_structure;
          Alcotest.test_case "data layout" `Quick test_layout_data_matches_interp ] );
      ( "positioning",
        [ Alcotest.test_case "hot pairs adjacent" `Quick
            test_positioning_orders_hot_pairs_adjacent;
          Alcotest.test_case "edge weights" `Quick test_positioning_edge_weights;
          Alcotest.test_case "preserves semantics" `Quick
            test_positioning_preserves_semantics;
          Alcotest.test_case "empty profile safe" `Quick
            test_positioning_empty_profile_is_identity_safe;
          Alcotest.test_case "helps tight icache" `Slow
            test_positioning_helps_tight_icache ] );
      ( "sim",
        [ Alcotest.test_case "metrics sane" `Quick test_sim_metrics_sane;
          Alcotest.test_case "traps" `Quick test_sim_traps;
          Alcotest.test_case "unresolved targets rejected" `Quick
            test_sim_rejects_unresolved_targets;
          Alcotest.test_case "bad registers rejected" `Quick
            test_sim_rejects_bad_registers;
          Alcotest.test_case "runs start clean" `Quick test_sim_runs_start_clean;
          Alcotest.test_case "instruction limit" `Quick test_sim_instruction_limit;
          Alcotest.test_case "indirect calls" `Quick test_sim_indirect_calls;
          Alcotest.test_case "call overhead" `Quick test_sim_call_overhead_visible;
          Alcotest.test_case "fixtures agree" `Quick
            test_sim_agrees_on_fixture_programs ] ) ]
