(* hlo_fuzz: differential fuzzing of the HLO pipeline.

   Samples random multi-module MiniC programs (the shared generator in
   lib/prog_gen/prog_gen.ml, with indirect calls, arity mismatches and
   trapping operations enabled), random HLO configurations and metamorphic
   profile perturbations, and asks the semantic oracle whether the
   transformed program still behaves like the original.  Failures are
   bucketed by a stable hash of their failure class; the first
   manifestation of each bucket is delta-debugged to a minimal repro
   and written under --out:

     _build/fuzz/<bucket>/repro.mc       original failing program
     _build/fuzz/<bucket>/repro.cmd      replay command line
     _build/fuzz/<bucket>/reduced/...    minimized repro

   Replay re-runs one saved case:

     hlo_fuzz --replay repro.mc [config flags from repro.cmd]

   The corpus directory seeds every campaign with hand-written programs
   covering the generator's feature corners before random search
   starts. *)

open Cmdliner

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Generous limits so that legitimate slowdowns (e.g. de-inlined deep
   call chains) don't read as divergence. *)
let interp_config =
  { Interp.default_config with Interp.fuel = 3_000_000; max_call_depth = 2_000 }

(* ------------------------------------------------------------------ *)
(* Case generation.                                                    *)

let list_corpus dir =
  if Sys.file_exists dir && Sys.is_directory dir then
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (fun f ->
           ( Filename.remove_extension f,
             Oracle.Fuzz.parse_combined (read_file (Filename.concat dir f)) ))
  else []

let gen_mutation st =
  match QCheck.Gen.int_range 0 5 st with
  | 0 | 1 -> Oracle.Keep
  | 2 -> Oracle.Scale (QCheck.Gen.oneofl [ 0.0; 0.5; 2.0; 1000.0 ] st)
  | 3 -> Oracle.Zero
  | _ -> Oracle.Stale (QCheck.Gen.int_range 0 1_000_000 st)

(* [pin] applies the knob flags given on the command line: a campaign
   run with --inline-mode region (say) keeps every case, corpus and
   generated, in region mode; knobs without a flag stay random. *)
let pin knobs check =
  { check with Oracle.ck_config = knobs check.Oracle.ck_config }

let gen_check ~knobs st =
  pin knobs
    { Oracle.ck_config = Prog_gen.gen_hlo_config st;
      ck_mutation = gen_mutation st;
      ck_jobs = QCheck.Gen.oneofl [ 1; 1; 1; 2 ] st }

(* Case [i] is a pure function of (seed, i): campaigns are reproducible
   and a crash report's label pins the case exactly. *)
let case_gen ~seed ~corpus ~knobs i =
  let st = Random.State.make [| 0x9e3779; seed; i |] in
  let n = List.length corpus in
  if i < n then
    let name, sources = List.nth corpus i in
    { Oracle.Fuzz.c_label = "corpus:" ^ name; c_sources = sources;
      c_check = pin knobs Oracle.default_check }
  else
    match if n > 0 then QCheck.Gen.int_range 0 3 st else 1 + QCheck.Gen.int_range 0 2 st with
    | 0 ->
      (* Corpus programs under random configs and profile mutations. *)
      let name, sources = QCheck.Gen.oneofl corpus st in
      { Oracle.Fuzz.c_label =
          Printf.sprintf "corpus:%s/seed=%d/i=%d" name seed i;
        c_sources = sources; c_check = gen_check ~knobs st }
    | 1 ->
      (* Hot/cold-skewed programs: one dominant path plus cold
         branches, the shape region splitting exists for. *)
      { Oracle.Fuzz.c_label = Printf.sprintf "skew:seed=%d/i=%d" seed i;
        c_sources =
          Prog_gen.render_shape (Prog_gen.gen_skewed_shape st);
        c_check = gen_check ~knobs st }
    | _ ->
      { Oracle.Fuzz.c_label = Printf.sprintf "gen:seed=%d/i=%d" seed i;
        c_sources =
          Prog_gen.render_shape (Prog_gen.gen_shape Prog_gen.wild_opts st);
        c_check = gen_check ~knobs st }

(* ------------------------------------------------------------------ *)
(* Modes.                                                              *)

let replay_case file config mutation jobs =
  let case =
    { Oracle.Fuzz.c_label = "replay:" ^ file;
      c_sources = Oracle.Fuzz.parse_combined (read_file file);
      c_check =
        { Oracle.ck_config = config; ck_mutation = mutation; ck_jobs = jobs } }
  in
  match Oracle.Fuzz.run_case ~interp_config case with
  | Oracle.Fuzz.Passed ->
    Fmt.pr "PASS: %s@." file;
    0
  | Oracle.Fuzz.Skipped reason ->
    Fmt.epr "SKIP: %s does not compile: %s@." file reason;
    2
  | Oracle.Fuzz.Failed f ->
    Fmt.pr "FAIL [bucket %s]: %s@." f.Oracle.Fuzz.f_bucket
      (match f.Oracle.Fuzz.f_kind with
      | Oracle.Fuzz.Mismatch { cls; detail } -> cls ^ "\n" ^ detail
      | Oracle.Fuzz.Crash { exn_class; detail } -> exn_class ^ "\n" ^ detail);
    1

let campaign seed iters time_budget out corpus_dir no_reduce knobs =
  let corpus = list_corpus corpus_dir in
  Fmt.pr "hlo_fuzz: seed=%d corpus=%d programs (%s)%s@." seed
    (List.length corpus) corpus_dir
    (match Policy.to_flags (knobs Hlo.Config.default) with
    | [] -> ""
    | flags -> " pinned: " ^ String.concat " " flags);
  let on_failure (f : Oracle.Fuzz.failure) =
    let dir = Filename.concat out f.Oracle.Fuzz.f_bucket in
    if not (Sys.file_exists dir) then begin
      Oracle.Fuzz.write_repro ~dir f;
      Fmt.pr "new bucket %s (%s); repro in %s@." f.Oracle.Fuzz.f_bucket
        f.Oracle.Fuzz.f_case.Oracle.Fuzz.c_label dir;
      if not no_reduce then begin
        let r = Oracle.Reduce.reduce ~interp_config f in
        Oracle.Fuzz.write_repro ~dir:(Filename.concat dir "reduced")
          r.Oracle.Reduce.r_failure;
        Fmt.pr "  reduced to %d statements in %d oracle runs@."
          r.Oracle.Reduce.r_lines r.Oracle.Reduce.r_tests
      end
    end
  in
  let stats =
    Oracle.Fuzz.campaign ~interp_config ~max_runs:iters ?time_budget
      ~on_failure
      ~gen:(case_gen ~seed ~corpus ~knobs)
      ()
  in
  Fmt.pr "%a@." Oracle.Fuzz.pp_stats stats;
  if stats.Oracle.Fuzz.st_failures > 0 then 1 else 0

let main seed iters time_budget out corpus_dir chaos replay knobs mutation jobs
    no_reduce =
  match
    match chaos with
    | None -> Ok ()
    | Some name -> (
      match Hlo.Chaos.of_name name with
      | Some bug ->
        Hlo.Chaos.arm (Some bug);
        Ok ()
      | None ->
        Error
          (Printf.sprintf "unknown chaos bug %s (known: %s)" name
             (String.concat ", " (List.map Hlo.Chaos.name Hlo.Chaos.all))))
  with
  | Error msg -> `Error (false, msg)
  | Ok () -> (
    match replay with
    | Some file ->
      (* Replay validates by default, unlike hloc; repro.cmd lines are
         relative to Hlo.Config.default, so --no-validate turns it off. *)
      let config =
        knobs { Hlo.Config.default with Hlo.Config.validate = true }
      in
      `Ok (replay_case file config mutation jobs)
    | None ->
      `Ok (campaign seed iters time_budget out corpus_dir no_reduce knobs))

(* ------------------------------------------------------------------ *)
(* Command line.                                                       *)

let seed =
  Arg.(value & opt int 0
       & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed; case $(i,i) is a \
                pure function of (seed, $(i,i)).")

let iters =
  Arg.(value & opt int 500
       & info [ "iters" ] ~docv:"N" ~doc:"Maximum number of cases to run.")

let time_budget =
  Arg.(value & opt (some float) None
       & info [ "time-budget" ] ~docv:"SECONDS"
           ~doc:"Stop starting new cases after $(docv) seconds.")

let out =
  Arg.(value & opt string "_build/fuzz"
       & info [ "out" ] ~docv:"DIR"
           ~doc:"Directory for per-bucket repro artifacts.")

let corpus_dir =
  Arg.(value & opt string "test/corpus"
       & info [ "corpus" ] ~docv:"DIR"
           ~doc:"Seed corpus of $(b,.mc) programs (combined // module \
                 format); each runs first under the default check, then \
                 again under random configs.")

let chaos =
  Arg.(value & opt (some string) None
       & info [ "chaos" ] ~docv:"BUG"
           ~doc:"Testing only: arm a deliberately seeded miscompilation \
                 bug in the transformation pipeline, to validate that the \
                 fuzzer catches it and the reducer shrinks it.")

let replay =
  Arg.(value & opt (some file) None
       & info [ "replay" ] ~docv:"FILE"
           ~doc:"Replay one saved case instead of fuzzing: run $(docv) \
                 through the oracle under the configuration given by the \
                 knob flags (see the generated repro.cmd).  In a campaign \
                 the knob flags pin those knobs on every case.")

let mutation =
  let parse s =
    match Oracle.mutation_of_string s with
    | Ok m -> Ok m
    | Error msg -> Error (`Msg msg)
  in
  let print ppf m = Fmt.string ppf (Oracle.mutation_to_string m) in
  Arg.(value
       & opt (conv (parse, print)) Oracle.Keep
       & info [ "mutation" ] ~docv:"MUT"
           ~doc:"(replay) Profile perturbation: $(b,keep), $(b,zero), \
                 $(b,scale:F), $(b,stale:N).  All are semantics-neutral; \
                 a behavior change under any of them is a bug.")

let jobs =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"(replay) Parallel domains during compilation.")

let no_reduce =
  Arg.(value & flag
       & info [ "no-reduce" ]
           ~doc:"Write raw repros only; skip delta-debugging new buckets.")

let cmd =
  let doc = "differential fuzzer for the HLO inlining/cloning pipeline" in
  let info = Cmd.info "hlo_fuzz" ~version:"1.0" ~doc in
  Cmd.v info
    Term.(ret
            (const main $ seed $ iters $ time_budget $ out $ corpus_dir
            $ chaos $ replay $ Policy.term ~all:true $ mutation $ jobs
            $ no_reduce))

let () = exit (Cmd.eval' cmd)
