(* Prints what every simulated run observably did: all eight
   [Machine.Metrics.t] counters, the exit code and a digest of the
   output, or the trap and its pc.  Programs:
   - the fourteen workloads, profiled on their train input and compiled
     by HLO at its default configuration, run at the input named on the
     command line ([train] or [ref]);
   - fixed-seed random programs ([Prog_gen.wild_opts], trapping ones
     included), unoptimized;
   - the workloads again on an I-cache whose line size and set count
     are not powers of two;
   - the workloads again under an instruction limit they all exceed.
   The dune rule next to this file diffs the train run against
   sim_metrics.expected; ci.sh diffs the ref run against
   sim_metrics_ref.expected. *)

module M = Machine.Metrics

let digest s = Digest.to_hex (Digest.string s)

let trap_name = function
  | Machine.Sim.Division_by_zero -> "Division_by_zero"
  | Machine.Sim.Memory_fault a -> Printf.sprintf "Memory_fault %Ld" a
  | Machine.Sim.Stack_overflow -> "Stack_overflow"
  | Machine.Sim.Bad_jump a -> Printf.sprintf "Bad_jump %d" a
  | Machine.Sim.Aborted -> "Aborted"
  | Machine.Sim.Out_of_instructions -> "Out_of_instructions"
  | Machine.Sim.Out_of_memory -> "Out_of_memory"

let show name ?config image =
  match Machine.Sim.run ?config image with
  | r ->
    let m = r.Machine.Sim.metrics in
    Printf.printf
      "== %s: exit=%Ld output=%d:%s\n   instructions=%d cycles=%d \
       icache=%d/%d dcache=%d/%d branches=%d/%d\n"
      name r.Machine.Sim.exit_code (String.length r.Machine.Sim.output)
      (digest r.Machine.Sim.output) m.M.instructions m.M.cycles
      m.M.icache_misses m.M.icache_accesses m.M.dcache_misses
      m.M.dcache_accesses m.M.branch_mispredicts m.M.branches
  | exception Machine.Sim.Trap (t, pc) ->
    Printf.printf "== %s: trap %s at pc %d\n" name (trap_name t) pc

let workload_images input =
  List.map
    (fun (b : Workloads.Suite.benchmark) ->
      let train = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
      let profile = (Interp.train train).Interp.profile in
      let p =
        match input with
        | Workloads.Suite.Train -> train
        | Workloads.Suite.Ref -> Workloads.Suite.compile b ~input
      in
      let optimized = (Hlo.Driver.run ~profile p).Hlo.Driver.program in
      (b.Workloads.Suite.b_name, Machine.Layout.build optimized))
    Workloads.Suite.all

let random_programs () =
  let config =
    { Machine.Sim.default_config with Machine.Sim.max_instructions = 3_000_000 }
  in
  for seed = 1 to 40 do
    let st = Random.State.make [| seed |] in
    let sources =
      Prog_gen.render_shape (Prog_gen.gen_shape Prog_gen.wild_opts st)
    in
    let p, _ = Minic.Compile.compile_program sources in
    show (Printf.sprintf "random %d" seed) ~config (Machine.Layout.build p)
  done

let () =
  let input, tag =
    match Sys.argv with
    | [| _; "train" |] -> (Workloads.Suite.Train, "train")
    | [| _; "ref" |] -> (Workloads.Suite.Ref, "ref")
    | _ ->
      prerr_endline "usage: sim_metrics.exe train|ref";
      exit 2
  in
  let images = workload_images input in
  List.iter (fun (name, image) -> show (name ^ " " ^ tag) image) images;
  random_programs ();
  let odd =
    { Machine.Sim.default_config with
      Machine.Sim.icache = { Machine.Cache.sets = 48; assoc = 2; line_words = 6 } }
  in
  List.iter
    (fun (name, image) ->
      show (name ^ " " ^ tag ^ " icache 48x2x6") ~config:odd image)
    images;
  let limited =
    { Machine.Sim.default_config with Machine.Sim.max_instructions = 20_000 }
  in
  List.iter
    (fun (name, image) ->
      show (name ^ " " ^ tag ^ " max_instructions 20000") ~config:limited image)
    images
