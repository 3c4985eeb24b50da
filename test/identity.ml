(* The identity harness, shared by the test suites: every claim that two
   ways of running a compile give the same bytes goes through here.

   A path compiles named MiniC modules under compile options and
   returns the pipeline's output pieces, or raises
   [Serve.Pipeline.Failed].  The reference path is the in-process
   [Pipeline.compile] with a collector installed; every other path must
   reproduce its outcome piece for piece — a trap or a compile error
   included, as the same failure with the same pieces before it.
   [options] switches every piece on: diagnostics, the training line,
   the [hlo] report, the IR, the decision journal and the interpreted
   run's output. *)

module P = Serve.Protocol
module Pipeline = Serve.Pipeline
module Pool = Parallel.Pool

type modules = (string * string) list

type path = {
  name : string;
  applies : P.compile_options -> bool;
  run : P.compile_options -> modules -> Pipeline.piece list;
  expect : Pipeline.piece -> Pipeline.piece;
      (** the reference piece this path must reproduce *)
}

let options config =
  { P.default_options with
    P.co_config = config; co_runner = P.Run_interp; co_stats = true;
    co_dump_ir = true; co_dump_journal = true }

let modules_of_sources =
  List.map (fun (s : Minic.Compile.source) ->
      (s.Minic.Compile.src_module, s.Minic.Compile.src_text))

let workload_modules b =
  modules_of_sources (Workloads.Suite.sources b ~input:Workloads.Suite.Train)

(* A compile's outcome as pieces: a failure adds one last ["failure"]
   piece, its kind and reason, after the pieces produced before it. *)
let outcome f =
  match f () with
  | pieces -> pieces
  | exception Pipeline.Failed { kind; reason; outputs } ->
    outputs @ [ ("failure", kind ^ ": " ^ reason) ]

(* Run [f] at [n] jobs, restoring the ambient degree. *)
let with_jobs n f =
  let saved = Pool.get_jobs () in
  Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> Pool.set_jobs saved) f

let with_collector f =
  Telemetry.Collector.install (Telemetry.Collector.create ());
  Fun.protect ~finally:Telemetry.Collector.uninstall f

(* ------------------------------------------------------------------ *)
(* The paths.                                                          *)

let path ?(applies = fun _ -> true) ?(expect = Fun.id) name run =
  { name; applies; run; expect }

let in_process ~jobs o modules =
  with_jobs jobs @@ fun () -> with_collector @@ fun () -> Pipeline.compile o modules

let reference = in_process ~jobs:1

(* HLO and the run on an already linked [program] under [profile]: the
   second half of the reference path. *)
let optimize o ~profile program =
  outcome @@ fun () ->
  with_jobs 1 @@ fun () ->
  with_collector @@ fun () -> Pipeline.optimize_and_run o ~profile program

let jobs n = path (Printf.sprintf "jobs %d" n) (in_process ~jobs:n)

(* Separate compilation: one isom per module, each through an
   encode/decode round trip, then link and the rest of the pipeline.
   Fresh isoms carry no profile fragments, so the link seeds none. *)
let isom =
  let roundtrip isom =
    match Isom.File.decode (Isom.File.encode isom) with
    | Ok got when got = isom -> got
    | Ok _ -> failwith "the isom codec round trip changed a module"
    | Error m -> failwith ("an isom failed to decode: " ^ m)
  in
  path "isom" @@ fun (o : P.compile_options) modules ->
  let produced = ref [] in
  let emit pieces = produced := !produced @ pieces in
  match
    with_jobs 1 @@ fun () ->
    with_collector @@ fun () ->
    Pipeline.guard @@ fun () ->
    let isoms, diags =
      Isom.Build.compile_inputs
        (List.map
           (fun (name, text) ->
             Isom.Build.Src (Minic.Compile.source ~module_name:name text))
           modules)
    in
    emit [ Pipeline.diag diags ];
    let program, _maps, seed =
      Isom.Build.link ~main:o.P.co_main (List.map roundtrip isoms)
    in
    if seed <> None then failwith "fresh isoms seeded a profile";
    let profile, trained = Pipeline.profile o program in
    emit trained;
    emit (Pipeline.optimize_and_run o ~profile program)
  with
  | () -> !produced
  | exception Pipeline.Failed f ->
    raise (Pipeline.Failed { f with outputs = !produced @ f.outputs })

(* A fresh in-process service (jobs 1) per compile, so every compile is
   a cache miss.  [Service.create] sets the pool degree; [with_jobs]
   puts the caller's back. *)
let daemon =
  path "daemon" @@ fun o modules ->
  with_jobs 1 @@ fun () ->
  let svc = Serve.Service.create Serve.Service.default_config in
  match Serve.Service.handle svc (P.Compile { modules; options = o }) with
  | P.Compiled { outputs; cache = "miss"; _ } -> outputs
  | P.Compiled { cache; _ } -> failwith ("a fresh service answered " ^ cache)
  | P.Failed { kind; reason; outputs } ->
    raise (Pipeline.Failed { kind; reason; outputs })
  | P.Rejected r -> failwith ("the service rejected the compile: " ^ r.P.rj_reason)
  | _ -> failwith "unexpected service response"

(* No collector: everything but the journal is the same, and the
   journal is empty. *)
let telemetry_off =
  path "telemetry off"
    ~expect:(function "journal", _ -> ("journal", "") | piece -> piece)
    (fun o modules -> with_jobs 1 @@ fun () -> Pipeline.compile o modules)

(* In whole mode the region knobs are inert. *)
let whole_inert =
  path "whole-mode inert"
    ~applies:(fun o -> o.P.co_config.Policy.inline_mode = Policy.Whole)
    (fun o modules ->
      let c = o.P.co_config in
      let fraction = if c.Policy.region_cold_fraction = 0.9 then 0.1 else 0.9 in
      reference
        { o with P.co_config = { c with Policy.region_cold_fraction = fraction } }
        modules)

(* ------------------------------------------------------------------ *)
(* Comparison.                                                         *)

let channels pieces = String.concat ";" (List.map fst pieces)

(* The first line at which two texts differ. *)
let first_line_difference a b =
  let line = function [] -> "end of text" | l :: _ -> Printf.sprintf "%S" l in
  let rec go n = function
    | x :: xs, y :: ys when x = y -> go (n + 1) (xs, ys)
    | xs, ys -> Printf.sprintf "line %d: %s vs %s" n (line xs) (line ys)
  in
  go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

(* The first piece at which two outcomes differ. *)
let rec difference expected got =
  match expected, got with
  | [], [] -> None
  | (c, e) :: es, (c', g) :: gs when c = c' ->
    if e = g then difference es gs
    else Some (Printf.sprintf "%s piece, %s" c (first_line_difference e g))
  | es, gs -> Some (Printf.sprintf "pieces [%s] vs [%s]" (channels es) (channels gs))

let same ~what expected got =
  Option.iter (fun d -> Alcotest.failf "%s: %s" what d) (difference expected got)

(* The first path whose outcome differs from the reference's.  A
   reference that fails validation is a mismatch of its own: two
   paths that break the IR alike are not evidence of anything. *)
let mismatch paths o modules =
  let expected = outcome (fun () -> reference o modules) in
  match List.assoc_opt "failure" expected with
  | Some r when String.starts_with ~prefix:"internal" r -> Some ("reference: " ^ r)
  | _ ->
    List.find_map
      (fun path ->
        if not (path.applies o) then None
        else
          Option.map
            (fun d -> Printf.sprintf "%s vs reference: %s" path.name d)
            (difference
               (List.map path.expect expected)
               (outcome (fun () -> path.run o modules))))
      paths

let check ~what paths o modules =
  Option.iter (fun d -> Alcotest.failf "%s: %s" what d) (mismatch paths o modules)

let check_workloads paths o =
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      check ~what:b.Workloads.Suite.b_name paths o (workload_modules b))
    Workloads.Suite.all

(* Random tame and hot/cold-skewed programs under random policies. *)
let arbitrary_case =
  let gen =
    QCheck.Gen.(
      pair
        (oneof
           [ Prog_gen.gen_program_sources;
             map Prog_gen.render_shape Prog_gen.gen_skewed_shape ])
        Prog_gen.gen_hlo_config)
  in
  QCheck.make
    ~print:(fun (sources, config) ->
      Prog_gen.print_sources sources ^ "\n--- policy ---\n"
      ^ Policy.to_string config)
    gen

let property ~name ~count paths =
  QCheck.Test.make ~count ~name arbitrary_case (fun (sources, config) ->
      match mismatch paths (options config) (modules_of_sources sources) with
      | None -> true
      | Some d -> QCheck.Test.fail_report d)
