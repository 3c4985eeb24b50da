(* Tests for the policy subsystem (lib/policy) and the hlo_tune search
   engine (lib/experiments/policy_search):

   - canonical text codec: round trips, strictness, corruption never
     crashes and never yields an invalid policy under byte mutations
     (qcheck);
   - the knob table: every surface it drives (policy text, command-line
     flags, the hlod wire) round trips random records (qcheck), and the
     canonical bytes of the default and committed policies never move;
   - persistence: store container and plain-text forms both load, a
     truncated container is an error, not a policy;
   - the search space: samples and mutants always validate (qcheck);
   - Pareto dominance and front;
   - tuner determinism: same seed, same parameters ⇒ same front and
     winner, and the winner never loses to the 1997 default;
   - the oracle gate: with a chaos bug armed, evaluation must reject
     the transformed program instead of scoring it. *)

let qcount =
  match Sys.getenv_opt "QCHECK_COUNT" with
  | Some s -> int_of_string s
  | None -> 100

(* ------------------------------------------------------------------ *)
(* Codec.                                                              *)

let test_codec_default () =
  let text = Policy.to_string Policy.default in
  (match Policy.of_string text with
  | Ok p ->
    Alcotest.(check bool) "default round trips" true (Policy.equal p Policy.default)
  | Error msg -> Alcotest.failf "default text rejected: %s" msg);
  Alcotest.(check bool)
    "hash is stable" true
    (String.equal (Policy.hash Policy.default) (Policy.hash Policy.default))

let test_codec_strict () =
  let text = Policy.to_string Policy.default in
  let lines = String.split_on_char '\n' text in
  let reject name t =
    match Policy.of_string t with
    | Ok _ -> Alcotest.failf "%s: accepted" name
    | Error _ -> ()
  in
  reject "empty" "";
  reject "missing line" (String.concat "\n" (List.tl lines));
  reject "duplicated line" (String.concat "\n" (List.hd lines :: lines));
  reject "unknown key" (text ^ "\nwarp_factor 9");
  reject "junk value" "budget_percent banana";
  (* Valid syntax, invalid semantics: must hit validate, not crash. *)
  reject "bad staging"
    (String.concat "\n"
       (List.map
          (fun line ->
            if String.length line >= 8 && String.sub line 0 8 = "staging "
            then "staging 2.0,1.0"
            else line)
          lines))

let prop_sample_round_trips =
  QCheck.Test.make ~count:qcount ~name:"random policies round trip"
    QCheck.(small_int)
    (fun seed ->
      let rng = Random.State.make [| 0xC0DEC; seed |] in
      let p = Policy.Space.sample rng in
      match Policy.of_string (Policy.to_string p) with
      | Ok q -> Policy.equal p q && String.equal (Policy.hash p) (Policy.hash q)
      | Error msg -> QCheck.Test.fail_report msg)

(* Byte-level fuzzing of the codec: a sampled policy's text under one
   to three set/insert/delete/truncate mutations decodes to a valid
   policy or an [Error], never an exception. *)
let policy_byte =
  QCheck.Gen.(
    oneof
      [ oneofl [ ' '; '\n'; ','; '.'; '-'; 'e'; '0'; '1'; '9'; '_'; 'n' ];
        char ])

let prop_corruption_safe =
  QCheck.Test.make ~count:qcount ~name:"corrupted text never yields an invalid policy"
    (Byte_mutation.arbitrary ~byte:policy_byte)
    (fun (seed, mutations) ->
      let rng = Random.State.make [| 0xBAD; seed |] in
      let text = Policy.to_string (Policy.Space.sample rng) in
      match
        Policy.of_string (List.fold_left Byte_mutation.apply text mutations)
      with
      | Error _ -> true
      | Ok p -> (
        (* The mutations may be no-ops or still parseable; then the
           result must at least be a valid policy. *)
        match Policy.validate p with
        | Ok () -> true
        | Error msg -> QCheck.Test.fail_report ("invalid policy accepted: " ^ msg))
      | exception e ->
        QCheck.Test.fail_reportf "of_string raised %s" (Printexc.to_string e))

(* ------------------------------------------------------------------ *)
(* The knob table.                                                     *)

(* Random records from both generators: the fuzzer's (every compile
   switch varies) and the tuner's (every policy knob varies). *)
let arbitrary_record =
  QCheck.make
    ~print:(fun c -> Policy.to_string c ^ String.concat " " (Policy.to_flags c))
    (QCheck.Gen.oneof [ Prog_gen.gen_hlo_config; Policy.Space.sample ])

let prop_knob_table_round_trips =
  QCheck.Test.make ~count:qcount ~name:"table round trips" arbitrary_record
    (fun c ->
      let module P = Serve.Protocol in
      let text = Policy.to_string c in
      (match Policy.of_string text with
      | Ok p -> Policy.equal p c || QCheck.Test.fail_report "text: knobs moved"
      | Error msg -> QCheck.Test.fail_report ("text: " ^ msg))
      && Policy.of_string ~base:c text = Ok c
      && (match Policy.of_flags (Policy.to_flags c) with
         | Ok c' -> c' = c || QCheck.Test.fail_report "flags: record moved"
         | Error msg -> QCheck.Test.fail_report ("flags: " ^ msg))
      &&
      let options = { P.default_options with P.co_config = c } in
      match
        P.request_of_json
          (P.request_to_json
             (P.Compile { modules = [ ("m", "func main() { return 0; }") ]; options }))
      with
      | Ok (P.Compile { options = o; _ }) ->
        o.P.co_config = c || QCheck.Test.fail_report "wire: record moved"
      | Ok _ -> QCheck.Test.fail_report "wire: not a compile"
      | Error msg -> QCheck.Test.fail_report ("wire: " ^ msg))

(* The canonical bytes are an artifact-key and report identity: the
   default and the committed tuned policies hash exactly as they did
   when the table was introduced. *)
let test_golden_hashes () =
  let policies_dir =
    if Sys.file_exists "../policies" then "../policies" else "policies"
  in
  let loaded name =
    match Policy.load ~path:(Filename.concat policies_dir name) with
    | Ok (Some p) -> p
    | Ok None -> Alcotest.failf "%s missing" name
    | Error msg -> Alcotest.failf "%s: %s" name msg
  in
  List.iter
    (fun (what, p, hash) -> Alcotest.(check string) what hash (Policy.hash p))
    [ ("default", Policy.default, "de86df637b46f5d9ecca2cb45634e401");
      ( "specint92", loaded "specint92.policy",
        "043714695c87b9cfd8368510aa91e7d5" );
      ( "specint95", loaded "specint95.policy",
        "f62a1f192849969896522dfe2c88db02" ) ]

(* ------------------------------------------------------------------ *)
(* Persistence.                                                        *)

let temp_path () =
  let path = Filename.temp_file "policy" ".policy" in
  Sys.remove path;
  path

let cleanup path = if Sys.file_exists path then Sys.remove path

let test_persistence () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  Alcotest.(check bool)
    "missing file is None" true
    (Policy.load ~path = Ok None);
  (match Policy.save ~path Policy.default with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save: %s" msg);
  (match Policy.load ~path with
  | Ok (Some p) ->
    Alcotest.(check bool) "container round trips" true (Policy.equal p Policy.default)
  | Ok None -> Alcotest.fail "saved policy not found"
  | Error msg -> Alcotest.failf "load: %s" msg);
  (* Plain canonical text (hloc --dump-policy output) loads too. *)
  let oc = open_out path in
  output_string oc (Policy.to_string Policy.default);
  close_out oc;
  (match Policy.load ~path with
  | Ok (Some p) ->
    Alcotest.(check bool) "plain text loads" true (Policy.equal p Policy.default)
  | Ok None -> Alcotest.fail "plain text not found"
  | Error msg -> Alcotest.failf "plain text load: %s" msg);
  (* Neither a container nor policy text: an error, not a policy. *)
  let oc = open_out path in
  output_string oc "this is not a policy\n";
  close_out oc;
  match Policy.load ~path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "garbage accepted"

let test_truncated_container () =
  let path = temp_path () in
  Fun.protect ~finally:(fun () -> cleanup path) @@ fun () ->
  (match Policy.save ~path Policy.default with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "save: %s" msg);
  let full = In_channel.with_open_bin path In_channel.input_all in
  let oc = open_out_bin path in
  output_string oc (String.sub full 0 (String.length full - 7));
  close_out oc;
  match Policy.load ~path with
  | Error _ -> ()
  | Ok None -> Alcotest.fail "truncated container reported as missing"
  | Ok (Some _) -> Alcotest.fail "truncated container yielded a policy"

(* ------------------------------------------------------------------ *)
(* Search space.                                                       *)

let prop_space_valid =
  QCheck.Test.make ~count:qcount ~name:"samples and mutants always validate"
    QCheck.(small_int)
    (fun seed ->
      let rng = Random.State.make [| 0x5face; seed |] in
      let p = Policy.Space.sample rng in
      let q = Policy.Space.mutate rng p in
      match (Policy.validate p, Policy.validate q) with
      | Ok (), Ok () -> true
      | Error msg, _ -> QCheck.Test.fail_report ("sample: " ^ msg)
      | _, Error msg -> QCheck.Test.fail_report ("mutate: " ^ msg))

let test_space_deterministic () =
  let draw seed =
    let rng = Random.State.make [| seed |] in
    let p = Policy.Space.sample rng in
    Policy.to_string (Policy.Space.mutate rng p)
  in
  Alcotest.(check string) "same seed, same draws" (draw 11) (draw 11);
  Alcotest.(check bool)
    "params documented" true
    (List.length Policy.Space.params >= 8)

(* ------------------------------------------------------------------ *)
(* Pareto.                                                             *)

let test_pareto () =
  let pt cycles size cost = { Policy.Pareto.cycles; size; cost } in
  let d = Policy.Pareto.dominates in
  Alcotest.(check bool) "strictly better" true (d (pt 1. 1. 1.) (pt 2. 2. 2.));
  Alcotest.(check bool) "better on one axis" true (d (pt 1. 2. 2.) (pt 2. 2. 2.));
  Alcotest.(check bool) "equal dominates nothing" false (d (pt 1. 1. 1.) (pt 1. 1. 1.));
  Alcotest.(check bool) "trade-off" false (d (pt 1. 3. 1.) (pt 2. 2. 2.));
  let front =
    Policy.Pareto.front
      [ ("a", pt 1. 3. 1.); ("b", pt 2. 2. 2.); ("c", pt 3. 3. 3.);
        ("dup", pt 1. 3. 1.); ("d", pt 3. 1. 3.) ]
  in
  Alcotest.(check (list string))
    "non-dominated, input order, dups dropped" [ "a"; "b"; "d" ]
    (List.map fst front)

(* ------------------------------------------------------------------ *)
(* The tuner.                                                          *)

let smoke_run () =
  Experiments.Policy_search.run ~seed:42 ~samples:3 ~rounds:1 ~mutations:2
    ~stale_rounds:0 ~input:Workloads.Suite.Train
    ~benchmarks:[ "026.compress" ] ()

let test_tuner_deterministic () =
  let fingerprint (t : Experiments.Policy_search.t) =
    String.concat "|"
      (List.concat_map
         (fun (cr : Experiments.Policy_search.class_result) ->
           Policy.hash cr.cr_winner
           :: List.map (fun (p, _) -> Policy.hash p) cr.cr_front)
         t.t_classes)
  in
  let a = smoke_run () in
  let b = smoke_run () in
  Alcotest.(check string) "same seed, same front and winner" (fingerprint a)
    (fingerprint b)

let test_tuner_winner_never_worse () =
  let t = smoke_run () in
  List.iter
    (fun (cr : Experiments.Policy_search.class_result) ->
      Alcotest.(check bool)
        "winner cycles <= default" true
        (cr.cr_winner_point.Policy.Pareto.cycles
         <= cr.cr_default.Policy.Pareto.cycles);
      Alcotest.(check bool)
        "winner size <= default" true
        (cr.cr_winner_point.Policy.Pareto.size
         <= cr.cr_default.Policy.Pareto.size))
    t.Experiments.Policy_search.t_classes

let test_oracle_gate () =
  let ctx =
    Experiments.Subject.of_benchmark ~input:Workloads.Suite.Train
      (Workloads.Suite.find "026.compress")
  in
  (* Sanity: the gate is open for an honest compiler. *)
  (match Experiments.Policy_search.evaluate ctx Policy.default with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "honest evaluation rejected: %s" msg);
  (* With a seeded miscompilation armed, the same evaluation must be
     rejected by the oracle — a plausible-but-wrong candidate can never
     be scored. *)
  match
    Hlo.Chaos.with_bug Hlo.Chaos.Inline_lost_retval (fun () ->
        Experiments.Policy_search.evaluate ctx Policy.default)
  with
  | Ok _ -> Alcotest.fail "miscompiled candidate was scored"
  | Error msg ->
    Alcotest.(check bool)
      (Printf.sprintf "rejected by the oracle (%s)" msg)
      true
      (String.length msg >= 6 && String.sub msg 0 6 = "oracle")

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "policy"
    [ ( "codec",
        [ Alcotest.test_case "default round trip" `Quick test_codec_default;
          Alcotest.test_case "strictness" `Quick test_codec_strict;
          to_alcotest prop_sample_round_trips;
          to_alcotest prop_corruption_safe ] );
      ( "knobs",
        [ to_alcotest prop_knob_table_round_trips;
          Alcotest.test_case "golden hashes" `Quick test_golden_hashes ] );
      ( "persistence",
        [ Alcotest.test_case "save/load forms" `Quick test_persistence;
          Alcotest.test_case "truncated container" `Quick
            test_truncated_container ] );
      ( "space",
        [ to_alcotest prop_space_valid;
          Alcotest.test_case "deterministic draws" `Quick
            test_space_deterministic ] );
      ("pareto", [ Alcotest.test_case "dominance and front" `Quick test_pareto ]);
      ( "tuner",
        [ Alcotest.test_case "deterministic" `Quick test_tuner_deterministic;
          Alcotest.test_case "winner never worse" `Quick
            test_tuner_winner_never_worse;
          Alcotest.test_case "oracle gate" `Quick test_oracle_gate ] ) ]
