(** Ablation studies for the design choices DESIGN.md calls out.

    Each study toggles one mechanism and reports what it buys on a
    subset of the suite:

    - {b staging}: the budget is released in stages across passes
      (Figure 2's [S[0..limit-1]]) versus handing the whole allowance
      to pass 0;
    - {b cold-penalty}: the inliner's penalty for call sites executed
      less often than their caller's entry versus treating all sites
      by raw frequency;
    - {b outlining}: the §5 "aggressive outlining" extension on/off;
    - {b positioning}: Pettis–Hansen profile-guided code positioning
      of the post-HLO image versus program-order layout, measured on a
      deliberately small I-cache where placement conflicts matter. *)

type variant_row = {
  a_benchmark : string;
  a_variant : string;
  a_cycles : int;
  a_detail : string;  (** study-specific extra column *)
}

type study = {
  st_name : string;
  st_detail_label : string;
  st_rows : variant_row list;
}

let default_benchmarks = [ "022.li"; "124.m88ksim"; "147.vortex"; "072.sc" ]

(* The rows of a study: [measure] gives each benchmark's subject one
   (variant, metrics, detail) triple per variant. *)
let study ?(input = Workloads.Suite.Train) ~benchmarks measure =
  List.concat_map
    (fun name ->
      let subject = Subject.of_benchmark ~input (Workloads.Suite.find name) in
      List.map
        (fun (a_variant, (m : Machine.Metrics.t), a_detail) ->
          { a_benchmark = name; a_variant; a_cycles = m.Machine.Metrics.cycles;
            a_detail })
        (measure subject))
    benchmarks

(* One variant per HLO configuration; [detail] reads HLO's report. *)
let configs ~detail variants subject =
  List.map
    (fun (label, config) ->
      let r = Oracle.Evaluate.evaluate ~config subject in
      (label, r.Oracle.Evaluate.metrics, detail r.Oracle.Evaluate.report))
    variants

(* ------------------------------------------------------------------ *)

let staging ?input ?(benchmarks = default_benchmarks) () : study =
  let variant label staging =
    (label, { Hlo.Config.default with Hlo.Config.staging })
  in
  { st_name = "budget staging"; st_detail_label = "operations";
    st_rows =
      study ?input ~benchmarks
        (configs
           ~detail:(fun r -> string_of_int (Hlo.Report.total_operations r))
           [ variant "staged" [ 0.25; 0.5; 0.75; 1.0 ];
             variant "all-upfront" [ 1.0 ] ]) }

let cold_penalty ?input ?(benchmarks = default_benchmarks) () : study =
  let variant label penalty =
    (label, { Hlo.Config.default with Hlo.Config.cold_site_penalty = penalty })
  in
  { st_name = "cold-site penalty"; st_detail_label = "inlines";
    st_rows =
      study ?input ~benchmarks
        (configs
           ~detail:(fun r -> string_of_int r.Hlo.Report.inlines)
           [ variant "penalized" 0.25; variant "raw-frequency" 1.0 ]) }

let outlining ?input ?(benchmarks = default_benchmarks) () : study =
  let variant label outline =
    (label, { Hlo.Config.default with Hlo.Config.outline })
  in
  { st_name = "aggressive outlining (paper §5)";
    st_detail_label = "outlined/cost";
    st_rows =
      study ?input ~benchmarks
        (configs
           ~detail:(fun r ->
             Printf.sprintf "%d outlined / cost %.0f" r.Hlo.Report.outlined
               r.Hlo.Report.cost_after)
           [ variant "inline-only" false; variant "outline+inline" true ]) }

(** A small, direct-mapped I-cache where routine placement decides
    which hot pairs conflict. *)
let tight_icache_sim =
  { Machine.Sim.default_config with
    Machine.Sim.icache = { Machine.Cache.sets = 48; assoc = 1; line_words = 8 } }

let positioning ?input ?(benchmarks = default_benchmarks) () : study =
  let measure subject =
    let r =
      Oracle.Evaluate.evaluate ~sim_config:tight_icache_sim
        ~config:Hlo.Config.default subject
    in
    let optimized = r.Oracle.Evaluate.optimized in
    let positioned =
      Machine.Positioning.apply optimized (Interp.train optimized).Interp.profile
    in
    let variant label (m : Machine.Metrics.t) =
      (label, m, string_of_int m.Machine.Metrics.icache_misses)
    in
    [ variant "program-order" r.Oracle.Evaluate.metrics;
      variant "pettis-hansen"
        (Oracle.Evaluate.check ~sim_config:tight_icache_sim subject r
           positioned) ]
  in
  { st_name = "profile-guided code positioning (Pettis-Hansen, [12])";
    st_detail_label = "I$ misses"; st_rows = study ?input ~benchmarks measure }

let all ?input ?benchmarks () : study list =
  [ staging ?input ?benchmarks (); cold_penalty ?input ?benchmarks ();
    outlining ?input ?benchmarks (); positioning ?input ?benchmarks () ]

let to_table (s : study) : string =
  Printf.sprintf "-- %s --\n%s" s.st_name
    (Tables.render
       ~aligns:[ Tables.Left; Tables.Left ]
       ~headers:[ "benchmark"; "variant"; "run(cycles)"; s.st_detail_label ]
       (List.map
          (fun r ->
            [ r.a_benchmark; r.a_variant; string_of_int r.a_cycles; r.a_detail ])
          s.st_rows))
