(** Instruction-cache sensitivity — testing the abstract's claim that
    "a large instruction cache mitigates the impact of code expansion".

    The same pair of binaries (neither vs. full inline+clone, compiled
    once) is simulated across I-cache sizes from far-too-small to
    comfortably large.  If the claim holds, inlining's speedup should
    be depressed at small caches — where its code expansion turns into
    extra misses — and recover as capacity grows. *)

type point = {
  cw_words : int;          (** I-cache capacity in instruction words *)
  cw_base_cycles : int;    (** neither *)
  cw_opt_cycles : int;     (** inline + clone *)
  cw_speedup : float;
  cw_base_miss_rate : float;
  cw_opt_miss_rate : float;
}

type sweep = {
  cw_benchmark : string;
  cw_code_base : int;  (** image words without inlining *)
  cw_code_opt : int;   (** image words with inlining *)
  cw_points : point list;
}

(** Cache geometries swept: direct-mapped at small sizes (conflict
    pressure), two-way beyond. *)
let default_geometries : Machine.Cache.config list =
  [ { Machine.Cache.sets = 16; assoc = 1; line_words = 8 };   (*   128 w *)
    { Machine.Cache.sets = 32; assoc = 1; line_words = 8 };   (*   256 w *)
    { Machine.Cache.sets = 64; assoc = 1; line_words = 8 };   (*   512 w *)
    { Machine.Cache.sets = 128; assoc = 2; line_words = 8 };  (*  2048 w *)
    { Machine.Cache.sets = 256; assoc = 2; line_words = 8 };  (*  4096 w *)
    { Machine.Cache.sets = 1024; assoc = 2; line_words = 8 } ](* 16384 w *)

let run_one ?(input = Workloads.Suite.Train)
    ?(geometries = default_geometries) (name : string) : sweep =
  let subject = Subject.of_benchmark ~input (Workloads.Suite.find name) in
  let compile transforms =
    let config = Fig6_speedup.config_of_transforms transforms in
    Oracle.Evaluate.evaluate ~config subject
  in
  let base = compile Fig6_speedup.Neither in
  let opt = compile Fig6_speedup.Both in
  let points =
    List.map
      (fun geometry ->
        let sim_config =
          { Machine.Sim.default_config with Machine.Sim.icache = geometry }
        in
        let simulate (r : Oracle.Evaluate.result) =
          Oracle.Evaluate.check ~sim_config subject r r.Oracle.Evaluate.optimized
        in
        let base = simulate base and opt = simulate opt in
        let words =
          geometry.Machine.Cache.sets * geometry.Machine.Cache.assoc
          * geometry.Machine.Cache.line_words
        in
        { cw_words = words;
          cw_base_cycles = base.Machine.Metrics.cycles;
          cw_opt_cycles = opt.Machine.Metrics.cycles;
          cw_speedup =
            float_of_int base.Machine.Metrics.cycles
            /. float_of_int opt.Machine.Metrics.cycles;
          cw_base_miss_rate = Machine.Metrics.icache_miss_rate base;
          cw_opt_miss_rate = Machine.Metrics.icache_miss_rate opt })
      geometries
  in
  { cw_benchmark = name;
    cw_code_base = Machine.Layout.code_size base.Oracle.Evaluate.image;
    cw_code_opt = Machine.Layout.code_size opt.Oracle.Evaluate.image;
    cw_points = points }

let default_benchmarks = [ "126.gcc"; "147.vortex"; "130.li" ]

let run ?input ?geometries ?(benchmarks = default_benchmarks) () : sweep list =
  List.map (fun n -> run_one ?input ?geometries n) benchmarks

let to_table (sweeps : sweep list) : string =
  let body =
    List.concat_map
      (fun s ->
        List.map
          (fun p ->
            [ Printf.sprintf "%s (%d->%d w)" s.cw_benchmark s.cw_code_base
                s.cw_code_opt;
              string_of_int p.cw_words; string_of_int p.cw_base_cycles;
              string_of_int p.cw_opt_cycles; Tables.f2 p.cw_speedup;
              Printf.sprintf "%.2f%%" (100.0 *. p.cw_base_miss_rate);
              Printf.sprintf "%.2f%%" (100.0 *. p.cw_opt_miss_rate) ])
          s.cw_points)
      sweeps
  in
  Tables.render
    ~aligns:[ Tables.Left ]
    ~headers:[ "benchmark (code size)"; "I$ words"; "base cyc"; "inlined cyc";
               "speedup"; "base I$ miss"; "inlined I$ miss" ]
    body
