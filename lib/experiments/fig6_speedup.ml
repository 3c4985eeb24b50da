(** Figure 6: relative speedup of the SPEC integer programs with
    inlining, cloning, or both.

    Baseline is a full cross-module, profile-fed compile with inlining
    and cloning disabled (the paper's baseline likewise kept every
    other optimization on).  Speedup = cycles(neither) / cycles(X).
    The suite summary rows are geometric means, as in the paper. *)

(** The four transform configurations. *)
type transforms = Neither | Inline_only | Clone_only | Both

let transforms_name = function
  | Neither -> "neither"
  | Inline_only -> "inline"
  | Clone_only -> "clone"
  | Both -> "inline and clone"

let config_of_transforms ?(base = Hlo.Config.default) = function
  | Neither -> Hlo.Config.with_transforms base ~inline:false ~clone:false
  | Inline_only -> Hlo.Config.with_transforms base ~inline:true ~clone:false
  | Clone_only -> Hlo.Config.with_transforms base ~inline:false ~clone:true
  | Both -> Hlo.Config.with_transforms base ~inline:true ~clone:true

type row = {
  benchmark : string;
  suite : Workloads.Suite.spec_suite;
  speedup_inline : float;
  speedup_clone : float;
  speedup_both : float;
}

type result = {
  rows : row list;
  geomean92 : float * float * float;  (** inline, clone, both *)
  geomean95 : float * float * float;
}

let run_one ?input ~(base_config : Hlo.Config.t)
    (b : Workloads.Suite.benchmark) : row =
  let subject = Subject.of_benchmark ?input b in
  let cycles transforms =
    let config = config_of_transforms ~base:base_config transforms in
    let r = Oracle.Evaluate.evaluate ~config subject in
    float_of_int r.Oracle.Evaluate.metrics.Machine.Metrics.cycles
  in
  let base = cycles Neither in
  { benchmark = b.Workloads.Suite.b_name; suite = b.Workloads.Suite.b_suite;
    speedup_inline = base /. cycles Inline_only;
    speedup_clone = base /. cycles Clone_only;
    speedup_both = base /. cycles Both }

let run ?input ?(base_config = Hlo.Config.default)
    ?(benchmarks = Workloads.Suite.all) () : result =
  let rows = List.map (run_one ?input ~base_config) benchmarks in
  let mean suite =
    let of_suite = List.filter (fun r -> r.suite = suite) rows in
    ( Tables.geomean (List.map (fun r -> r.speedup_inline) of_suite),
      Tables.geomean (List.map (fun r -> r.speedup_clone) of_suite),
      Tables.geomean (List.map (fun r -> r.speedup_both) of_suite) )
  in
  { rows; geomean92 = mean Workloads.Suite.Spec92;
    geomean95 = mean Workloads.Suite.Spec95 }

let to_table (r : result) : string =
  let headers = [ "benchmark"; "inline"; "clone"; "inline+clone" ] in
  let body =
    List.map
      (fun row ->
        [ row.benchmark; Tables.f2 row.speedup_inline;
          Tables.f2 row.speedup_clone; Tables.f2 row.speedup_both ])
      r.rows
  in
  let mean_row label (i, c, b) =
    [ label; Tables.f2 i; Tables.f2 c; Tables.f2 b ]
  in
  Tables.render ~aligns:[ Tables.Left ] ~headers
    (body
    @ [ mean_row "SPECint92 (geomean)" r.geomean92;
        mean_row "SPECint95 (geomean)" r.geomean95 ])
