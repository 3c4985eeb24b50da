(* Tests for the benchmark suite: every workload compiles cleanly,
   runs identically on both engines at both input sizes, produces the
   frozen golden outputs, and exhibits the call-site features the
   experiments rely on. *)

module U = Ucode.Types
module CG = Ucode.Callgraph

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* Golden outputs for the train inputs, frozen from a verified run;
   any semantic drift in the workloads or the tool chain trips these. *)
let golden_train =
  [ ("008.espresso", "224809\n");
    ("022.li", "363743\n");
    ("023.eqntott", "751375\n");
    ("026.compress", "622680\n306\n");
    ("072.sc", "407360\n");
    ("085.gcc", "987743\n");
    ("099.go", "513732\n");
    ("124.m88ksim", "371647\n");
    ("126.gcc", "874569\n");
    ("129.compress", "467704\n498\n");
    ("130.li", "59187\n");
    ("132.ijpeg", "13825\n");
    ("134.perl", "383756\n");
    ("147.vortex", "883906\n") ]

let test_registry () =
  check_int "fourteen benchmarks" 14 (List.length Workloads.Suite.all);
  check_int "six SPEC92" 6
    (List.length (Workloads.Suite.of_suite Workloads.Suite.Spec92));
  check_int "eight SPEC95" 8
    (List.length (Workloads.Suite.of_suite Workloads.Suite.Spec95));
  List.iter
    (fun b ->
      check_bool "ref bigger than train" true
        (b.Workloads.Suite.b_ref_size > b.Workloads.Suite.b_train_size))
    Workloads.Suite.all

let test_compiles_clean () =
  List.iter
    (fun b ->
      let sources = Workloads.Suite.sources b ~input:Workloads.Suite.Train in
      let p, diags = Minic.Compile.compile_program sources in
      Alcotest.(check (list string))
        (b.Workloads.Suite.b_name ^ " no diagnostics")
        []
        (List.map Minic.Diag.to_string diags);
      match Ucode.Validate.check_program p with
      | [] -> ()
      | errors -> Alcotest.fail (Ucode.Validate.errors_to_string errors))
    Workloads.Suite.all

let test_golden_outputs () =
  List.iter
    (fun (name, expected) ->
      let b = Workloads.Suite.find name in
      let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
      let r = Interp.run p in
      check_string (name ^ " golden") expected r.Interp.output)
    golden_train

let test_engines_agree_both_inputs () =
  List.iter
    (fun b ->
      List.iter
        (fun input ->
          let p = Workloads.Suite.compile b ~input in
          let ir = Interp.run p in
          let sim = Machine.Sim.run_program p in
          check_string
            (b.Workloads.Suite.b_name ^ " engines agree")
            ir.Interp.output sim.Machine.Sim.output;
          check_bool "produces output" true (String.length ir.Interp.output > 0))
        [ Workloads.Suite.Train; Workloads.Suite.Ref ])
    Workloads.Suite.all

let test_call_site_features () =
  (* Every benchmark must offer cross-module sites (the paper: "the
     ability to inline these cross-module calls is crucial"); the
     designated ones must also have indirect and recursive sites. *)
  List.iter
    (fun b ->
      let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
      let counts = CG.classify (CG.build p) in
      let get c = List.assoc c counts in
      check_bool
        (b.Workloads.Suite.b_name ^ " has cross-module sites")
        true
        (get CG.Cross_module > 0);
      check_bool
        (b.Workloads.Suite.b_name ^ " has external sites")
        true
        (get CG.External > 0))
    Workloads.Suite.all;
  let has_indirect name =
    let p = Workloads.Suite.compile (Workloads.Suite.find name)
        ~input:Workloads.Suite.Train in
    List.assoc CG.Indirect_call (CG.classify (CG.build p)) > 0
  in
  check_bool "li dispatches indirectly" true (has_indirect "022.li");
  check_bool "eqntott sorts through pointers" true (has_indirect "023.eqntott");
  let has_recursive name =
    let p = Workloads.Suite.compile (Workloads.Suite.find name)
        ~input:Workloads.Suite.Train in
    List.assoc CG.Recursive (CG.classify (CG.build p)) > 0
  in
  check_bool "li recurses" true (has_recursive "022.li");
  check_bool "go recurses (flood fill)" true (has_recursive "099.go");
  check_bool "gcc recurses (parser/folder)" true (has_recursive "085.gcc")

let test_constant_argument_sites () =
  (* The cloning benchmarks must call with interesting constants. *)
  List.iter
    (fun name ->
      let b = Workloads.Suite.find name in
      let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
      let any_const_context =
        List.exists
          (fun (r : U.routine) ->
            let contexts = Hlo.Summaries.edge_contexts r in
            U.Int_map.exists
              (fun _ values ->
                List.exists
                  (function
                    | Hlo.Summaries.Cconst _ | Hlo.Summaries.Cfun _ -> true
                    | Hlo.Summaries.Cunknown -> false)
                  values)
              contexts)
          p.U.p_routines
      in
      check_bool (name ^ " has constant-arg sites") true any_const_context)
    [ "022.li"; "124.m88ksim"; "132.ijpeg"; "023.eqntott" ]

let test_train_cheaper_than_ref () =
  List.iter
    (fun b ->
      let train = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
      let ref_ = Workloads.Suite.compile b ~input:Workloads.Suite.Ref in
      let st = (Interp.run train).Interp.steps in
      let sr = (Interp.run ref_).Interp.steps in
      check_bool (b.Workloads.Suite.b_name ^ " ref runs longer") true (sr > st))
    Workloads.Suite.all

let test_sizes_reasonable () =
  List.iter
    (fun b ->
      let p = Workloads.Suite.compile b ~input:Workloads.Suite.Train in
      let n = List.length p.U.p_routines in
      check_bool (b.Workloads.Suite.b_name ^ " enough routines") true (n >= 8);
      let steps = (Interp.run p).Interp.steps in
      check_bool (b.Workloads.Suite.b_name ^ " runs long enough") true
        (steps > 50_000);
      check_bool (b.Workloads.Suite.b_name ^ " train not too slow") true
        (steps < 5_000_000))
    Workloads.Suite.all

let () =
  Alcotest.run "workloads"
    [ ( "suite",
        [ Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "compiles clean" `Quick test_compiles_clean;
          Alcotest.test_case "golden outputs" `Quick test_golden_outputs;
          Alcotest.test_case "engines agree" `Slow test_engines_agree_both_inputs;
          Alcotest.test_case "call-site features" `Quick test_call_site_features;
          Alcotest.test_case "constant-arg sites" `Quick
            test_constant_argument_sites;
          Alcotest.test_case "train vs ref" `Quick test_train_cheaper_than_ref;
          Alcotest.test_case "sizes reasonable" `Quick test_sizes_reasonable ] ) ]
