(* The parallel determinism suite.

   The contract under test: compiling with any `--jobs N` produces
   results *bit-identical* to the sequential compile — the final IR,
   the HLO report, and the optimizer decision journal (timestamps
   excluded; they are wall-clock).  Plus unit coverage for the domain
   pool itself and for the content-hashed summary cache, including
   warm-vs-cold equivalence. *)

module U = Ucode.Types
module Pool = Parallel.Pool

let jobs_levels = [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Pool unit tests.                                                    *)

let test_pool_matches_sequential () =
  let p = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  let xs = Array.init 257 (fun i -> i) in
  let f x = (x * 7919) mod 1001 in
  Alcotest.(check (array int))
    "map_array_in = Array.map" (Array.map f xs)
    (Pool.map_array_in p f xs);
  Alcotest.(check (list int))
    "map_list_in = List.map"
    (List.map f (Array.to_list xs))
    (Pool.map_list_in p f (Array.to_list xs))

exception Boom of int

(* Busy work, so a failing item finishes after the others. *)
let spin () =
  let acc = ref 0 in
  for k = 1 to 300_000 do
    acc := !acc + (k land 7)
  done;
  ignore (Sys.opaque_identity !acc)

let test_pool_first_error_by_index () =
  let p = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  (* Items 3 and 17 fail; whatever finishes first, the raised error
     must be item 3's — exactly what sequential Array.map would do.
     Item 3 is slow to tempt a completion-order implementation into
     raising item 17's. *)
  let xs = Array.init 64 (fun i -> i) in
  let f x =
    if x = 3 then (spin (); raise (Boom x))
    else if x = 17 then raise (Boom x)
    else x
  in
  match Pool.map_array_in p ~chunk_size:1 f xs with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom n -> Alcotest.(check int) "first failure by index" 3 n

let test_pool_nested_maps () =
  let p = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  (* A parallel map whose items themselves map in parallel: the inner
     maps must degrade to inline execution (Pool.in_worker) instead of
     deadlocking on the shared queue. *)
  let outer = Array.init 8 (fun i -> i) in
  let f i =
    Array.fold_left ( + ) 0
      (Pool.map_array_in p (fun j -> (i * 10) + j) (Array.init 10 Fun.id))
  in
  Alcotest.(check (array int))
    "nested map" (Array.map f outer)
    (Pool.map_array_in p f outer)

let test_pool_ambient_degree () =
  let saved = Pool.get_jobs () in
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) @@ fun () ->
  Pool.set_jobs 3;
  Alcotest.(check int) "set/get" 3 (Pool.get_jobs ());
  Alcotest.(check int) "pool degree" 3 (Pool.jobs (Pool.the ()));
  Pool.set_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Pool.get_jobs ())

(* The warm pool: consecutive maps at an unchanged degree must not
   spawn domains; resizing spawns or joins only the delta. *)
let test_pool_resize_reuse () =
  let p = Pool.create ~jobs:4 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  Alcotest.(check int) "create spawns jobs - 1" 3 (Pool.spawned p);
  let xs = Array.init 100 Fun.id in
  ignore (Pool.map_array_in p (fun x -> x + 1) xs : int array);
  let s1 = Pool.spawned p in
  ignore (Pool.map_array_in p (fun x -> x * 2) xs : int array);
  ignore (Pool.map_array_in p (fun x -> x - 3) xs : int array);
  Alcotest.(check int) "no spawn between maps at the same degree" s1
    (Pool.spawned p);
  Pool.resize p 2;
  Alcotest.(check int) "shrinking spawns nothing" s1 (Pool.spawned p);
  Alcotest.(check int) "degree shrunk" 2 (Pool.jobs p);
  ignore (Pool.map_array_in p (fun x -> x + 7) xs : int array);
  Alcotest.(check int) "still warm after shrink" s1 (Pool.spawned p);
  Pool.resize p 4;
  Alcotest.(check int) "growing spawns only the delta" (s1 + 2)
    (Pool.spawned p);
  Alcotest.(check (array int))
    "map correct after resizes"
    (Array.map succ xs)
    (Pool.map_array_in p succ xs)

(* Many items failing concurrently on every executor: the error raised
   must still be the lowest-index one, run after run.  chunk_size 1
   makes every failure its own stealable task, and the lowest failing
   item is slow, so it is rarely the first to finish. *)
let test_pool_concurrent_failures () =
  let p = Pool.create ~jobs:8 in
  Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
  for round = 1 to 20 do
    let n = 128 in
    let xs = Array.init n Fun.id in
    let first = 5 + (round mod 7) in
    let f x =
      if x = first then spin ();
      if x >= first then raise (Boom x) else x
    in
    match Pool.map_array_in p ~chunk_size:1 f xs with
    | _ -> Alcotest.fail "expected an exception"
    | exception Boom got ->
      Alcotest.(check int) "lowest failing index wins" first got
  done

(* Property: the steal path never changes results.  Random per-item
   busy-work (so deques drain unevenly and executors steal) and random
   chunk sizes, at every jobs level. *)
let prop_steal_determinism =
  QCheck.Test.make ~count:25
    ~name:"map_array_in = Array.map under random durations and chunks"
    QCheck.(
      triple (int_range 1 150) (int_range 0 1_000_000)
        (option (int_range 1 40)))
    (fun (n, seed, chunk_size) ->
      let state = ref (Int64.of_int (seed + 1)) in
      let next bound =
        state :=
          Int64.add
            (Int64.mul !state 6364136223846793005L)
            1442695040888963407L;
        Int64.to_int
          (Int64.rem (Int64.shift_right_logical !state 33) (Int64.of_int bound))
      in
      let work = Array.init n (fun _ -> next 300) in
      let f i =
        let acc = ref 0 in
        for k = 1 to work.(i) do
          acc := !acc + ((k * (i + 1)) mod 97)
        done;
        (i * 7919) + (!acc mod 13)
      in
      let xs = Array.init n Fun.id in
      let expected = Array.map f xs in
      List.iter
        (fun jobs ->
          let p = Pool.create ~jobs in
          Fun.protect ~finally:(fun () -> Pool.shutdown p) @@ fun () ->
          let got = Pool.map_array_in p ?chunk_size f xs in
          if got <> expected then
            QCheck.Test.fail_report
              (Printf.sprintf
                 "results differ at jobs=%d (n=%d chunk_size=%s)" jobs n
                 (match chunk_size with
                 | None -> "auto"
                 | Some c -> string_of_int c)))
        jobs_levels;
      true)

(* ------------------------------------------------------------------ *)
(* One full compile, instrumented.                                     *)

(* The decision journal with wall-clock stripped: everything the
   optimizer decided, in order, without the one field that legitimately
   differs between runs. *)
type journal_entry = {
  j_kind : string;
  j_verdict : string;
  j_reason : string;
  j_subject : string;
  j_context : string;
  j_site : int;
  j_score : float;
  j_pass : int;
}

let journal_of collector =
  List.map
    (fun (d : Telemetry.Event.decision) ->
      { j_kind = Telemetry.Event.kind_name d.Telemetry.Event.d_kind;
        j_verdict = Telemetry.Event.verdict_name d.Telemetry.Event.d_verdict;
        j_reason =
          (match d.Telemetry.Event.d_verdict with
          | Telemetry.Event.Accepted -> ""
          | Telemetry.Event.Rejected r -> r);
        j_subject = d.Telemetry.Event.d_subject;
        j_context = d.Telemetry.Event.d_context;
        j_site = d.Telemetry.Event.d_site;
        j_score = d.Telemetry.Event.d_score;
        j_pass = d.Telemetry.Event.d_pass })
    (Telemetry.Collector.decisions collector)

type run_result = {
  rr_ir : string;          (* pretty-printed final program *)
  rr_report : string;      (* pretty-printed Report.t *)
  rr_journal : journal_entry list;
}

(* Compile sources → train (if the config wants profile) → HLO, with
   [jobs] ambient domains and a private collector, returning everything
   the determinism contract covers.  [profile] is computed by the
   caller once per program: the training interpreter is sequential and
   deterministic, so sharing it just avoids redundant work. *)
let run_once ~jobs ~(config : Hlo.Config.t) ~profile sources : run_result =
  Pool.set_jobs jobs;
  Fun.protect ~finally:(fun () -> Pool.set_jobs 1) @@ fun () ->
  let collector = Telemetry.Collector.create () in
  Telemetry.Collector.install collector;
  Fun.protect ~finally:Telemetry.Collector.uninstall @@ fun () ->
  let program, _diags = Minic.Compile.compile_program sources in
  (* Validate after the parallel front end stage, every time. *)
  (match Ucode.Validate.check_program program with
  | [] -> ()
  | errors ->
    Alcotest.fail
      ("front end produced invalid IR:\n"
      ^ Ucode.Validate.errors_to_string errors));
  let res = Hlo.Driver.run ~config ~profile program in
  (* config.validate is on for every generated config, so the driver
     also validated after each clone/inline/optimize stage. *)
  { rr_ir = Ucode.Pp.program_to_string res.Hlo.Driver.program;
    rr_report = Fmt.str "%a" Hlo.Report.pp res.Hlo.Driver.report;
    rr_journal = journal_of collector }

let profile_for ~(config : Hlo.Config.t) sources =
  if config.Hlo.Config.use_profile then begin
    let program, _ = Minic.Compile.compile_program sources in
    match
      Interp.run
        ~config:{ Prog_gen.interp_config with Interp.profile = true }
        program
    with
    | r -> r.Interp.profile
    | exception Interp.Trap _ -> Ucode.Profile.empty
  end
  else Ucode.Profile.empty

let check_identical ~what ~jobs (reference : run_result) (got : run_result) =
  let tag s = Printf.sprintf "%s: %s at jobs=%d vs jobs=1" what s jobs in
  Alcotest.(check string) (tag "IR") reference.rr_ir got.rr_ir;
  Alcotest.(check string) (tag "report") reference.rr_report got.rr_report;
  if reference.rr_journal <> got.rr_journal then begin
    let show j =
      String.concat "\n"
        (List.map
           (fun e ->
             Printf.sprintf "%s %s%s %s<-%s site=%d score=%.6g pass=%d"
               e.j_kind e.j_verdict
               (if e.j_reason = "" then "" else "(" ^ e.j_reason ^ ")")
               e.j_subject e.j_context e.j_site e.j_score e.j_pass)
           j)
    in
    Alcotest.(check string)
      (tag "decision journal")
      (show reference.rr_journal) (show got.rr_journal)
  end

(* ------------------------------------------------------------------ *)
(* Property: random programs, random configs, jobs 1..8.               *)

let prop_differential_determinism =
  QCheck.Test.make ~count:25
    ~name:"jobs 1/2/4/8 produce identical IR, report and journal"
    (QCheck.pair Prog_gen.arbitrary_sources (QCheck.make Prog_gen.gen_hlo_config))
    (fun (sources, config) ->
      let profile = profile_for ~config sources in
      let reference = run_once ~jobs:1 ~config ~profile sources in
      List.iter
        (fun jobs ->
          let got = run_once ~jobs ~config ~profile sources in
          check_identical ~what:"random program" ~jobs reference got)
        (List.filter (fun j -> j > 1) jobs_levels);
      true)

(* Property: a warm summary cache changes nothing but the hit counter. *)
let prop_warm_cache_equals_cold =
  QCheck.Test.make ~count:25 ~name:"warm summary cache equals cold"
    (QCheck.pair Prog_gen.arbitrary_sources (QCheck.make Prog_gen.gen_hlo_config))
    (fun (sources, config) ->
      let profile = profile_for ~config sources in
      Hlo.Summary_cache.clear ();
      let cold = run_once ~jobs:1 ~config ~profile sources in
      let stats_cold = Hlo.Summary_cache.stats () in
      let warm = run_once ~jobs:1 ~config ~profile sources in
      let stats_warm = Hlo.Summary_cache.stats () in
      check_identical ~what:"warm vs cold" ~jobs:1 cold warm;
      (* The warm run must actually have been served by the cache: no
         new entries appeared (same program ⇒ same body hashes). *)
      if stats_warm.Hlo.Summary_cache.entries
         <> stats_cold.Hlo.Summary_cache.entries
      then
        QCheck.Test.fail_report
          (Printf.sprintf "warm run added entries: %d -> %d"
             stats_cold.Hlo.Summary_cache.entries
             stats_warm.Hlo.Summary_cache.entries);
      true)

(* ------------------------------------------------------------------ *)
(* The 14 paper workloads and a scale-sized program, swept across jobs
   levels.                                                             *)

let sweep_case name program =
  ( Printf.sprintf "%s bit-identical at jobs 1/2/4/8" name,
    `Slow,
    fun () ->
      let config, profile, sources = program () in
      let reference = run_once ~jobs:1 ~config ~profile sources in
      List.iter
        (fun jobs ->
          let got = run_once ~jobs ~config ~profile sources in
          check_identical ~what:name ~jobs reference got)
        (List.filter (fun j -> j > 1) jobs_levels) )

let workload_case (b : Workloads.Suite.benchmark) =
  sweep_case b.Workloads.Suite.b_name (fun () ->
      let sources = Workloads.Suite.sources b ~input:Workloads.Suite.Train in
      let config = { Hlo.Config.default with Hlo.Config.validate = true } in
      (config, profile_for ~config sources, sources))

(* The 14 workloads have tens of routines; a 1000-routine program gives
   every parallel stage enough shards to actually interleave. *)
let scale_case =
  sweep_case "1000-routine wide Scale program" (fun () ->
      ( Hlo.Config.default,
        Ucode.Profile.empty,
        Prog_gen.Scale.sources Prog_gen.Scale.Wide ~routines:1000 ~seed:1 ))

(* ------------------------------------------------------------------ *)
(* Summary cache: hashing and the in-memory table.                    *)

let small_program () =
  Minic.Compile.compile_string
    "func helper(x) { for (var i = 0; i < 3; i = i + 1) { x = x + i; } \
     return x; } func main() { print_int(helper(4)); return 0; }"

let test_hash_ignores_identity () =
  let p = small_program () in
  let r = U.find_routine_exn p "helper" in
  let h = Ucode.Hash.routine_body_hash r in
  Alcotest.(check string)
    "renaming does not change the hash" h
    (Ucode.Hash.routine_body_hash { r with U.r_name = "other"; r_module = "m2" });
  Alcotest.(check string)
    "clone origin does not change the hash" h
    (Ucode.Hash.routine_body_hash { r with U.r_origin = U.Clone_of "helper" });
  (* Re-siting calls (what inlining copies do) keeps the hash... *)
  let resite (b : U.block) =
    { b with
      U.b_instrs =
        List.map
          (function
            | U.Call c -> U.Call { c with U.c_site = c.U.c_site + 1000 }
            | i -> i)
          b.U.b_instrs }
  in
  let p_main = U.find_routine_exn p "main" in
  Alcotest.(check string)
    "site ids do not change the hash"
    (Ucode.Hash.routine_body_hash p_main)
    (Ucode.Hash.routine_body_hash
       { p_main with U.r_blocks = List.map resite p_main.U.r_blocks });
  (* ...but touching an instruction does not. *)
  let bump_const (b : U.block) =
    { b with
      U.b_instrs =
        List.map
          (function
            | U.Const (d, k) -> U.Const (d, Int64.add k 1L)
            | i -> i)
          b.U.b_instrs }
  in
  let r' = { r with U.r_blocks = List.map bump_const r.U.r_blocks } in
  if Ucode.Hash.routine_body_hash r' = h then
    Alcotest.fail "changing a constant must change the hash"

let test_cache_agrees_with_direct_computation () =
  Hlo.Summary_cache.clear ();
  let p = small_program () in
  (* Twice per routine: the first lookup misses and computes, the
     second is served from the table. *)
  List.iter
    (fun r ->
      let direct =
        U.Int_set.elements (Ucode.Flat.cycles (Ucode.Flat.of_routine r))
      in
      for _ = 1 to 2 do
        Alcotest.(check (list int)) "cached cycles = Flat.cycles" direct
          (U.Int_set.elements (Hlo.Summary_cache.cycles r))
      done)
    p.U.p_routines;
  Alcotest.(check bool) "the second lookups hit" true
    ((Hlo.Summary_cache.stats ()).Hlo.Summary_cache.hits > 0)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "parallel"
    [ ( "pool",
        [ Alcotest.test_case "deterministic map" `Quick
            test_pool_matches_sequential;
          Alcotest.test_case "first error by index" `Quick
            test_pool_first_error_by_index;
          Alcotest.test_case "nested maps run inline" `Quick
            test_pool_nested_maps;
          Alcotest.test_case "ambient degree" `Quick test_pool_ambient_degree;
          Alcotest.test_case "resize reuses warm workers" `Quick
            test_pool_resize_reuse;
          Alcotest.test_case "concurrent failures: first by index" `Quick
            test_pool_concurrent_failures;
          to_alcotest prop_steal_determinism ] );
      ( "determinism",
        [ to_alcotest prop_differential_determinism;
          to_alcotest prop_warm_cache_equals_cold ] );
      ( "workloads",
        List.map workload_case Workloads.Suite.all @ [ scale_case ] );
      ( "summary_cache",
        [ Alcotest.test_case "hash ignores identity" `Quick
            test_hash_ignores_identity;
          Alcotest.test_case "agrees with direct computation" `Quick
            test_cache_agrees_with_direct_computation ] ) ]
