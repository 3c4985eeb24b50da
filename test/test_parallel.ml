(* The parallel determinism suite.

   The contract under test: compiling with any `--jobs N` produces
   results *bit-identical* to the sequential compile — every output
   piece, the final IR, the HLO report, the optimizer decision journal
   and the run's output — checked by the identity harness's jobs paths.
   Plus unit coverage for the domain pool itself and for the
   content-hashed summary cache, including warm-vs-cold equivalence. *)

module U = Ucode.Types
module Pool = Parallel.Pool

let jobs_levels = [ 1; 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Pool unit tests.                                                    *)

(* Run [f] on the ambient pool at [n] jobs, restoring the degree. *)
let with_jobs n f =
  let saved = Pool.get_jobs () in
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) @@ fun () ->
  Pool.set_jobs n;
  f ()

let test_pool_matches_sequential () =
  with_jobs 4 @@ fun () ->
  let xs = List.init 257 Fun.id in
  let f x = (x * 7919) mod 1001 in
  Alcotest.(check (list int)) "map_list = List.map" (List.map f xs)
    (Pool.map_list f xs)

exception Boom of int

(* Busy work, so a failing item finishes after the others. *)
let spin () =
  let acc = ref 0 in
  for k = 1 to 300_000 do
    acc := !acc + (k land 7)
  done;
  ignore (Sys.opaque_identity !acc)

let test_pool_first_error_by_index () =
  with_jobs 4 @@ fun () ->
  (* Items 3 and 17 fail, in different chunks; whatever finishes
     first, the raised error must be item 3's — exactly what
     sequential List.map would do.  Item 3 is slow to tempt a
     completion-order implementation into raising item 17's. *)
  let f x =
    if x = 3 then (spin (); raise (Boom x))
    else if x = 17 then raise (Boom x)
    else x
  in
  match Pool.map_list f (List.init 64 Fun.id) with
  | _ -> Alcotest.fail "expected an exception"
  | exception Boom n -> Alcotest.(check int) "first failure by index" 3 n

let test_pool_nested_maps () =
  with_jobs 4 @@ fun () ->
  (* A parallel map whose items themselves map in parallel: the inner
     maps must degrade to inline execution on the worker instead of
     deadlocking on the shared pool. *)
  let f i =
    List.fold_left ( + ) 0
      (Pool.map_list (fun j -> (i * 10) + j) (List.init 10 Fun.id))
  in
  let outer = List.init 8 Fun.id in
  Alcotest.(check (list int)) "nested map" (List.map f outer)
    (Pool.map_list f outer)

let test_pool_ambient_degree () =
  with_jobs 3 @@ fun () ->
  Alcotest.(check int) "set/get" 3 (Pool.get_jobs ());
  Pool.set_jobs 0;
  Alcotest.(check int) "clamped to 1" 1 (Pool.get_jobs ())

(* A degree above the bound is refused before anything is spawned:
   by [set_jobs], and by the command lines' [--jobs] converter. *)
let test_pool_job_bound () =
  with_jobs 2 @@ fun () ->
  let spawned = Pool.spawned () in
  (match Pool.set_jobs (Pool.max_jobs + 1) with
  | () -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "degree unchanged" 2 (Pool.get_jobs ());
  Alcotest.(check int) "nothing spawned" spawned (Pool.spawned ());
  let parse = Cmdliner.Arg.conv_parser Parallel.Jobs_arg.conv in
  let accepts s = Result.is_ok (parse s) in
  Alcotest.(check bool) "bound accepted" true
    (accepts (string_of_int Pool.max_jobs));
  Alcotest.(check bool) "bound + 1 refused" false
    (accepts (string_of_int (Pool.max_jobs + 1)));
  Alcotest.(check bool) "garbage refused" false (accepts "two")

(* The warm pool: consecutive maps at an unchanged degree must not
   spawn domains; resizing spawns or joins only the delta. *)
let test_pool_resize_reuse () =
  with_jobs 1 @@ fun () ->
  let s0 = Pool.spawned () in
  let xs = List.init 100 Fun.id in
  let map f = ignore (Pool.map_list f xs : int list) in
  Pool.set_jobs 4;
  Alcotest.(check int) "set_jobs alone spawns nothing" s0 (Pool.spawned ());
  map succ;
  Alcotest.(check int) "the first map spawns jobs - 1" (s0 + 3)
    (Pool.spawned ());
  map (fun x -> x * 2);
  map (fun x -> x - 3);
  Alcotest.(check int) "no spawn between maps at the same degree" (s0 + 3)
    (Pool.spawned ());
  Pool.set_jobs 2;
  map (fun x -> x + 7);
  Alcotest.(check int) "still warm after shrink" (s0 + 3) (Pool.spawned ());
  Pool.set_jobs 4;
  Alcotest.(check (list int)) "map correct after resizes" (List.map succ xs)
    (Pool.map_list succ xs);
  Alcotest.(check int) "growing spawns only the delta" (s0 + 5)
    (Pool.spawned ())

(* Many items failing concurrently on every executor: the error raised
   must still be the lowest-index one, run after run.  The lowest
   failing item is slow, so it is rarely the first to finish. *)
let test_pool_concurrent_failures () =
  with_jobs 8 @@ fun () ->
  for round = 1 to 20 do
    let first = 5 + (round mod 7) in
    let f x =
      if x = first then spin ();
      if x >= first then raise (Boom x) else x
    in
    match Pool.map_list f (List.init 128 Fun.id) with
    | _ -> Alcotest.fail "expected an exception"
    | exception Boom got ->
      Alcotest.(check int) "lowest failing index wins" first got
  done

(* Property: uneven chunk durations never change results.  Random
   per-item busy-work, so executors finish their chunks out of order,
   at every jobs level. *)
let prop_pool_determinism =
  QCheck.Test.make ~count:25
    ~name:"map_list = List.map under random durations"
    QCheck.(pair (int_range 1 150) (int_range 0 1_000_000))
    (fun (n, seed) ->
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
      let xs = List.init n Fun.id in
      let expected = List.map f xs in
      List.iter
        (fun jobs ->
          with_jobs jobs @@ fun () ->
          if Pool.map_list f xs <> expected then
            QCheck.Test.fail_reportf "results differ at jobs=%d (n=%d)" jobs n)
        jobs_levels;
      true)

(* ------------------------------------------------------------------ *)
(* Compiles at jobs 2/4/8 against the sequential reference, through
   the identity harness: random programs under random policies, the 14
   paper workloads and a scale-sized program.                          *)

let jobs_paths = List.map Identity.jobs [ 2; 4; 8 ]

let prop_differential_determinism =
  Identity.property ~count:25
    ~name:"jobs 1/2/4/8 produce identical IR, report and journal" jobs_paths

(* Property: a warm summary cache changes nothing but the hit counter. *)
let prop_warm_cache_equals_cold =
  QCheck.Test.make ~count:25 ~name:"warm summary cache equals cold"
    Identity.arbitrary_case
    (fun (sources, config) ->
      let o = Identity.options config in
      let modules = Identity.modules_of_sources sources in
      let compile () = Identity.outcome (fun () -> Identity.reference o modules) in
      Hlo.Summary_cache.clear ();
      let cold = compile () in
      let stats_cold = Hlo.Summary_cache.stats () in
      let warm = compile () in
      let stats_warm = Hlo.Summary_cache.stats () in
      Option.iter
        (fun d -> QCheck.Test.fail_report ("warm vs cold: " ^ d))
        (Identity.difference cold warm);
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

let sweep_case name config modules =
  ( Printf.sprintf "%s bit-identical at jobs 1/2/4/8" name,
    `Slow,
    fun () ->
      Identity.check ~what:name jobs_paths (Identity.options config)
        (modules ()) )

let workload_case (b : Workloads.Suite.benchmark) =
  sweep_case b.Workloads.Suite.b_name
    { Hlo.Config.default with Hlo.Config.validate = true }
    (fun () -> Identity.workload_modules b)

(* The 14 workloads have tens of routines; a 1000-routine program gives
   every parallel stage enough shards to actually interleave. *)
let scale_case =
  sweep_case "1000-routine wide Scale program" Hlo.Config.default (fun () ->
      Identity.modules_of_sources
        (Prog_gen.Scale.sources Prog_gen.Scale.Wide ~routines:1000 ~seed:1))

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
          Alcotest.test_case "job bound" `Quick test_pool_job_bound;
          Alcotest.test_case "resize reuses warm workers" `Quick
            test_pool_resize_reuse;
          Alcotest.test_case "concurrent failures: first by index" `Quick
            test_pool_concurrent_failures;
          to_alcotest prop_pool_determinism ] );
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
