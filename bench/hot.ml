(* A sampling profiler for HLO: where its CPU time goes, function by
   function, below the telemetry spans (every [opt.*] span folds into
   one [opt.self_s]).

     dune exec bench/hot.exe -- scale [RUNS]   # Prog_gen.Scale, seed 1
     dune exec bench/hot.exe -- spec [RUNS]    # the 14 workloads

   Each program is compiled and trained once, unsampled.  Then
   [Hlo.Driver.run] runs RUNS times (default 10) per program at one
   job, with ITIMER_PROF armed: each kernel tick of process CPU time
   raises SIGPROF, whose handler records the OCaml call stack.  The
   table gives, per function, its share of the samples on top of the
   stack (self) and anywhere in it (inclusive), highest inclusive
   first.

   Limits: a signal is handled only at an OCaml poll point or an
   allocation, so a sample lands on the next one after the tick, not
   on the instruction that was running; and the tick is the kernel's
   (4 ms on a 250 Hz kernel, whatever the timer asks for), so a
   CPU-second gives about 220-250 samples, and a share below a few
   percent needs many runs to be read. *)

let depth = 256

let samples : Printexc.raw_backtrace list ref = ref []

(* The handler's own frame is the innermost one; it is dropped. *)
let on_sigprof _ = samples := Printexc.get_callstack depth :: !samples

let frame_name slot =
  match Printexc.Slot.name slot with
  | Some n -> n
  | None -> (
    match Printexc.Slot.location slot with
    | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
    | None -> "?")

let compile sources = fst (Minic.Compile.compile_program sources)

(* (name, program, training program) per program of the workload. *)
let programs = function
  | "scale" ->
    List.map
      (fun shape ->
        let p = compile (Prog_gen.Scale.sources shape ~routines:1000 ~seed:1) in
        ("scale/" ^ Prog_gen.Scale.shape_name shape, p, p))
      Prog_gen.Scale.all_shapes
  | "spec" ->
    List.map
      (fun (b : Workloads.Suite.benchmark) ->
        ( b.Workloads.Suite.b_name,
          compile (Workloads.Suite.sources b ~input:Workloads.Suite.Ref),
          compile (Workloads.Suite.sources b ~input:Workloads.Suite.Train) ))
      Workloads.Suite.all
  | _ ->
    prerr_endline "usage: hot.exe [scale|spec] [RUNS]";
    exit 2

let () =
  let workload = if Array.length Sys.argv > 1 then Sys.argv.(1) else "scale" in
  let runs = if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 10 in
  Parallel.Pool.set_jobs 1;
  let work =
    List.map
      (fun (name, p, train) -> (name, p, (Interp.train train).Interp.profile))
      (programs workload)
  in
  let cpu0 = Sys.time () in
  Sys.set_signal Sys.sigprof (Sys.Signal_handle on_sigprof);
  let tick = { Unix.it_interval = 0.001; it_value = 0.001 } in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  for _ = 1 to runs do
    List.iter
      (fun (_, p, profile) ->
        (* Cold caches, as a fresh compile has. *)
        Hlo.Summary_cache.clear ();
        Hlo.Clone_db.clear ();
        ignore (Hlo.Driver.run ~profile p))
      work
  done;
  ignore (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = 0.; it_value = 0. });
  Sys.set_signal Sys.sigprof Sys.Signal_default;
  let cpu = Sys.time () -. cpu0 in
  let self = Hashtbl.create 256 and incl = Hashtbl.create 256 in
  let bump t k = Hashtbl.replace t k (1 + Option.value ~default:0 (Hashtbl.find_opt t k)) in
  let n = List.length !samples in
  List.iter
    (fun bt ->
      match Printexc.backtrace_slots bt with
      | None -> ()
      | Some slots ->
        let names = List.map frame_name (List.tl (Array.to_list slots)) in
        (match names with top :: _ -> bump self top | [] -> ());
        List.iter (bump incl) (List.sort_uniq compare names))
    !samples;
  Printf.printf "%s: %d HLO runs of %d programs, %.2f CPU s, %d samples\n" workload
    runs (List.length work) cpu n;
  Printf.printf "%8s %8s  %s\n" "incl%" "self%" "function";
  let share c = 100. *. float_of_int c /. float_of_int (max n 1) in
  Hashtbl.fold (fun k c acc -> (k, c) :: acc) incl []
  |> List.sort (fun (k1, a) (k2, b) -> if a <> b then compare b a else compare k1 k2)
  |> List.iteri (fun i (k, c) ->
         if i < 60 then
           Printf.printf "%8.1f %8.1f  %s\n" (share c)
             (share (Option.value ~default:0 (Hashtbl.find_opt self k)))
             k)
