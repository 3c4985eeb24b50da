(* From passes to results: the per-workload summary, the JSON envelope
   every run writes, the one-line result a run ends with, and the
   [compare] and [check] verdicts over envelopes. *)

module J = Telemetry.Json

let schema = 2

(* End-to-end metrics, reported for every workload.  BENCHMARK.json
   lists the same names and units ([check] holds them equal) and adds
   each metric's direction and regression bound. *)
let e2e_metrics =
  [ ("e2e_s", "s"); ("compile_s", "s"); ("cycles_geomean", "cycles");
    ("size_geomean", "insns"); ("peak_rss_mb", "MB"); ("setup_s", "s") ]

(* Reported in the envelope only: the pass's time as measured, and the
   host speed that scales it into [e2e_s]. *)
let extra_metrics = [ ("cpu_s", "s"); ("wall_s", "s"); ("host_speed", "ratio") ]

type workload_result = {
  workload : Workload.t;
  setups_s : float list;  (** each set-up's time, at the nominal host speed *)
  passes : Pass.t list;  (** the timed passes *)
  traced : Pass.t option;
  peak_rss_mb : float;
  attempted : int;
  failures : string list;
  violations : string list;  (** broken determinism or BENCH_pr10 gates *)
}

let failed r = List.length r.failures

let correct r = r.failures = [] && r.violations = [] && r.passes <> []

(* ------------------------------------------------------------------ *)
(* Gates.                                                              *)

(* Everything a pass reports per program must repeat exactly across the
   passes of one run, the warm-up and traced passes included. *)
let determinism_violations (passes : Pass.t list) =
  match passes with
  | [] -> []
  | first :: rest ->
    List.concat_map
      (fun (p : Pass.t) ->
        List.concat_map
          (fun (name, row) ->
            match List.assoc_opt name first.Pass.programs with
            | None -> [ name ^ ": missing from the first pass" ]
            | Some row0 ->
              List.filter_map
                (fun (k, v) ->
                  match List.assoc_opt k row0 with
                  | Some v0 when Float.equal v v0 -> None
                  | _ ->
                    Some
                      (Printf.sprintf "determinism: %s %s differs between passes"
                         name k))
                row)
          p.Pass.programs)
      rest

(* spec-starved is the region column of BENCH_pr10.json, which
   hlo-experiments modes --json wrote: cycles, size and residues must
   be the same. *)
let pr10_violations (pass : Pass.t) =
  match Jsonx.read_file "BENCH_pr10.json" with
  | Error e -> [ "cannot read BENCH_pr10.json: " ^ e ]
  | Ok doc ->
    let region name =
      List.find_map
        (fun b ->
          if J.member "name" b = Some (J.String name) then J.member "region" b
          else None)
        (Option.value ~default:[] (Option.bind (J.member "benchmarks" doc) J.to_list_opt))
    in
    List.concat_map
      (fun (name, row) ->
        match region name with
        | None -> [ name ^ ": not in BENCH_pr10.json" ]
        | Some col ->
          List.filter_map
            (fun key ->
              let want = Option.bind (J.member key col) J.to_number in
              if want = List.assoc_opt key row then None
              else Some (Printf.sprintf "%s: %s differs from BENCH_pr10.json" name key))
            [ "cycles"; "size"; "residues" ])
      pass.Pass.programs

let gate_violations w (all : Pass.t list) =
  determinism_violations all
  @
  match (w, all) with
  | Workload.Spec_starved, first :: _ -> pr10_violations first
  | _ -> []

(* ------------------------------------------------------------------ *)
(* Metrics.                                                            *)

let rows_geomean key (pass : Pass.t) =
  Stats.geomean (List.map (fun (_, row) -> List.assoc key row) pass.Pass.programs)

(* The samples of one metric: one per timed pass, one per set-up, or
   the run's single peak. *)
let samples r name =
  let per_pass f = List.map f r.passes in
  match name with
  | "e2e_s" -> per_pass (fun p -> p.Pass.e2e_s)
  | "compile_s" -> per_pass (fun p -> p.Pass.compile_s)
  | "cycles_geomean" -> per_pass (rows_geomean "cycles")
  | "size_geomean" -> per_pass (rows_geomean "size")
  | "cpu_s" -> per_pass (fun p -> p.Pass.cpu_s)
  | "wall_s" -> per_pass (fun p -> p.Pass.wall_s)
  | "host_speed" -> per_pass (fun p -> p.Pass.host_speed)
  | "setup_s" -> r.setups_s
  | "peak_rss_mb" -> [ r.peak_rss_mb ]
  | _ -> invalid_arg ("Envelope.samples: " ^ name)

let summary r (name, unit) =
  let xs = samples r name in
  let q1, med, q3 = Stats.quartiles xs in
  ( name,
    J.Assoc
      [ ("value", J.Float med); ("unit", J.String unit); ("q1", J.Float q1);
        ("q3", J.Float q3);
        ("min", J.Float (List.fold_left Float.min infinity xs));
        ("max", J.Float (List.fold_left Float.max neg_infinity xs));
        ("n", J.Int (List.length xs));
        ("samples", J.List (List.map (fun x -> J.Float x) xs)) ] )

let e2e_value r name = Stats.median (samples r name)

(* The traced pass's per-layer values; 0 where a layer is not exercised. *)
let layer_values r =
  match (r.traced, r.passes) with
  | Some t, first :: _ ->
    let measured =
      Layers.of_rows first.Pass.programs
      @ t.Pass.layers
      @ [ ("telemetry.overhead_ratio", t.Pass.e2e_s /. e2e_value r "e2e_s") ]
    in
    Some
      (List.map
         (fun (name, unit) ->
           (name, unit, Option.value ~default:0.0 (List.assoc_opt name measured)))
         Layers.metrics)
  | _ -> None

let to_json r =
  let metrics =
    if r.passes <> [] then List.map (summary r) (e2e_metrics @ extra_metrics) else []
  in
  let layers =
    match layer_values r with
    | None -> []
    | Some ls ->
      let t = Option.get r.traced in
      [ ( "layers",
          J.Assoc
            (List.map
               (fun (n, u, v) ->
                 (n, J.Assoc [ ("value", J.Float v); ("unit", J.String u) ]))
               ls) );
        ("traced_e2e_s", J.Float t.Pass.e2e_s) ]
      @ Option.fold ~none:[]
          ~some:(fun c -> [ ("span_coverage", J.Float c) ])
          (List.assoc_opt "telemetry.span_coverage" t.Pass.layers)
  in
  let programs =
    match r.passes with
    | [] -> []
    | first :: _ ->
      List.map
        (fun (name, row) ->
          let times =
            List.filter_map (fun (p : Pass.t) -> List.assoc_opt name p.Pass.program_s) r.passes
          in
          J.Assoc
            ((("name", J.String name)
              :: (if times = [] then [] else [ ("e2e_s", J.Float (Stats.median times)) ]))
            @ List.map (fun (k, v) -> (k, J.Float v)) row))
        first.Pass.programs
  in
  J.Assoc
    ([ ("name", J.String (Workload.name r.workload));
       ("passes", J.Int (List.length r.passes)); ("traced", J.Bool (r.traced <> None));
       ("correct", J.Bool (correct r)); ("attempted", J.Int r.attempted);
       ("failed", J.Int (failed r));
       ("failures", J.List (List.map (fun s -> J.String s) (List.filteri (fun i _ -> i < 20) r.failures)));
       ("violations", J.List (List.map (fun s -> J.String s) r.violations));
       ("metrics", J.Assoc metrics) ]
    @ layers
    @ [ ("programs", J.List programs) ])

(* Only inside a git work tree: elsewhere git would search the parent
   directories for one. *)
let git_rev () =
  if not (Sys.file_exists ".git") then "unknown"
  else
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let rev = Option.value ~default:"" (In_channel.input_line ic) in
    ignore (Unix.close_process_in ic);
    if rev = "" then "unknown" else rev

let envelope ~seed ~seconds ~smoke results =
  J.Assoc
    [ ("schema", J.Int schema); ("git_rev", J.String (git_rev ()));
      ("cores", J.Int Workload.cores); ("ocaml", J.String Sys.ocaml_version);
      ("seed", J.Int seed); ("seconds", J.Float seconds); ("smoke", J.Bool smoke);
      ("workloads", J.List (List.map to_json results)) ]

(* A run's last line: correctness, work attempted and failed, and the
   end-to-end metrics, or with tracing the per-layer ones.  Over
   several workloads, names are prefixed with the workload's. *)
let result_line ~trace results =
  let metrics r =
    let prefix =
      match results with [ _ ] -> "" | _ -> Workload.name r.workload ^ "/"
    in
    let entry (n, u, v) =
      (prefix ^ n, J.Assoc [ ("value", J.Float v); ("unit", J.String u) ])
    in
    if r.passes = [] then []
    else if trace then
      List.map entry (Option.value ~default:[] (layer_values r))
    else List.map (fun (n, u) -> entry (n, u, e2e_value r n)) e2e_metrics
  in
  Jsonx.to_string
    (J.Assoc
       [ ("correct", J.Bool (List.for_all correct results));
         ("attempted", J.Int (List.fold_left (fun a r -> a + r.attempted) 0 results));
         ("failed", J.Int (List.fold_left (fun a r -> a + failed r) 0 results));
         ("metrics", J.Assoc (List.concat_map metrics results)) ])

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json.                                                     *)

type bound = { b_name : string; b_unit : string; b_lower_better : bool; b_bound : float }

(* Read from the repository root, where runs start. *)
let read_benchmark () =
  match Jsonx.read_file "BENCHMARK.json" with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok doc ->
    let entries key =
      List.map
        (fun m ->
          let s k = Option.get (J.to_string_opt (Jsonx.member_exn k m)) in
          { b_name = s "name"; b_unit = s "unit";
            b_lower_better = String.equal (s "better") "lower";
            b_bound =
              Option.value ~default:0.0 (Option.bind (J.member "bound" m) J.to_number) })
        (Jsonx.list (Jsonx.member_exn key doc))
    in
    let workloads =
      List.map
        (fun w -> Option.get (J.to_string_opt (Jsonx.member_exn "name" w)))
        (Jsonx.list (Jsonx.member_exn "workloads" doc))
    in
    (workloads, entries "end_to_end", entries "per_layer")

let workload_entry env name =
  List.find_opt
    (fun w -> J.member "name" w = Some (J.String name))
    (Jsonx.list (Jsonx.member_exn "workloads" env))

(* ------------------------------------------------------------------ *)
(* compare OLD NEW.                                                    *)

type verdict = Better | Same | Worse | Unresolved

let verdict_name = function
  | Better -> "better" | Same -> "same" | Worse -> "worse" | Unresolved -> "unresolved"

(* [b_bound] is the share of OLD's median by which NEW may be worse.
   When the quartile spread of either side is wider than the bound the
   medians cannot be told apart, unless every NEW sample beats every OLD
   sample. *)
let judge b ~old ~new_ =
  let q1o, mo, q3o = Stats.quartiles old and q1n, mn, q3n = Stats.quartiles new_ in
  let worse_by = if b.b_lower_better then (mn -. mo) /. mo else (mo -. mn) /. mo in
  let spread = Float.max (q3o -. q1o) (q3n -. q1n) /. mo in
  let beats x y = if b.b_lower_better then x < y else x > y in
  let all_new_better =
    List.for_all (fun n -> List.for_all (fun o -> beats n o) old) new_
  in
  let v =
    if spread > b.b_bound then if all_new_better then Better else Unresolved
    else if worse_by > b.b_bound then Worse
    else if worse_by < -.b.b_bound || (worse_by < 0.0 && all_new_better) then Better
    else Same
  in
  (v, mo, mn, worse_by, spread)

let fail_frac w =
  let n k = Option.value ~default:0.0 (Option.bind (J.member k w) J.to_number) in
  Stats.ratio (n "failed") (n "attempted")

let compare_envelopes ~old ~new_ =
  let _, e2e, _ = read_benchmark () in
  let regressions = ref 0 in
  Fmt.pr "%-13s %-15s %14s %14s %8s %8s %7s  %s@." "workload" "metric" "old" "new"
    "worse" "spread" "bound" "verdict";
  List.iter
    (fun nw ->
      let name = Option.get (J.to_string_opt (Jsonx.member_exn "name" nw)) in
      match workload_entry old name with
      | None -> Fmt.pr "%-13s (not in OLD)@." name
      | Some ow ->
        List.iter
          (fun b ->
            let get w =
              Option.bind
                (Option.bind (J.member "metrics" w) (J.member b.b_name))
                (J.member "samples")
              |> Option.map (fun s -> List.map Jsonx.number (Jsonx.list s))
            in
            match (get ow, get nw) with
            | Some (_ :: _ as old), Some (_ :: _ as new_) ->
              let v, mo, mn, worse_by, spread = judge b ~old ~new_ in
              if v = Worse then incr regressions;
              Fmt.pr "%-13s %-15s %14.6g %14.6g %+7.2f%% %7.2f%% %6.1f%%  %s@." name
                b.b_name mo mn (100.0 *. worse_by) (100.0 *. spread)
                (100.0 *. b.b_bound) (verdict_name v)
            | _ -> Fmt.pr "%-13s %-15s (missing)@." name b.b_name)
          e2e;
        let fo = fail_frac ow and fn = fail_frac nw in
        if fn > fo then begin
          incr regressions;
          Fmt.pr "%-13s %-15s %14.6g %14.6g %8s %8s %7s  worse@." name "fail_frac" fo fn "" "" ""
        end)
    (Jsonx.list (Jsonx.member_exn "workloads" new_));
  !regressions = 0

(* ------------------------------------------------------------------ *)
(* check FILE.                                                         *)

(* Every metric BENCHMARK.json names is present, finite and in the
   named unit for every workload; no work failed; in a traced run, the
   layer self times account for the traced pass's program wall time
   within 2%. *)
let check env =
  let workloads, e2e, per_layer = read_benchmark () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let same_names what (declared : bound list) code =
    if List.map (fun b -> (b.b_name, b.b_unit)) declared <> code then
      problem "BENCHMARK.json %s differ from the metrics the harness reports" what
  in
  same_names "end_to_end" e2e e2e_metrics;
  same_names "per_layer" per_layer Layers.metrics;
  if List.sort compare workloads <> List.sort compare (List.map Workload.name Workload.all)
  then problem "BENCHMARK.json workloads differ from the harness's";
  List.iter
    (fun name ->
      match workload_entry env name with
      | None -> problem "%s: missing" name
      | Some w ->
        if J.member "correct" w <> Some (J.Bool true) then problem "%s: not correct" name;
        if fail_frac w <> 0.0 then problem "%s: fail_frac %g" name (fail_frac w);
        let metric section (b : bound) ~positive =
          match Option.bind (J.member section w) (J.member b.b_name) with
          | None -> problem "%s: %s missing" name b.b_name
          | Some m -> (
            if J.member "unit" m <> Some (J.String b.b_unit) then
              problem "%s: %s unit is not %s" name b.b_name b.b_unit;
            match Option.bind (J.member "value" m) J.to_number with
            | Some v when Float.is_finite v && ((not positive) || v > 0.0) -> ()
            | _ -> problem "%s: %s is not a finite%s number" name b.b_name
                     (if positive then " positive" else ""))
        in
        List.iter (metric "metrics" ~positive:true) e2e;
        if J.member "traced" w = Some (J.Bool true) then begin
          List.iter (metric "layers" ~positive:false) per_layer;
          match Option.bind (J.member "span_coverage" w) J.to_number with
          | Some c when Float.abs (1.0 -. c) > 0.02 ->
            problem "%s: layer self times cover %.1f%% of the traced pass" name (100.0 *. c)
          | _ -> ()
        end)
    workloads;
  List.rev !problems
