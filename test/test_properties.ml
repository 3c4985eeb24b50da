(* Property-based tests (qcheck, registered as alcotest cases).

   The central tool is a generator of random — but always terminating
   and trap-free by construction — multi-module MiniC programs that
   print observable values.  Every transformation layer is then tested
   differentially:

   - the machine simulator agrees with the IR interpreter;
   - the scalar optimizer preserves interpreter output;
   - HLO at random scopes/budgets/operation caps preserves output and
     produces structurally valid IR;
   - each individual pass preserves output;
   - the profile database conserves call flow, also at a trap;
   - the cache model agrees with a naive reference LRU;
   - the branch predictor agrees with naive 2-bit counters. *)

module U = Ucode.Types
module Gen = QCheck.Gen

(* The random program generator and the outcome helpers live in
   Prog_gen so the parallel determinism suite (test_parallel.ml) can
   reuse them. *)

let arbitrary_program = Prog_gen.arbitrary_program
let interp_config = Prog_gen.interp_config
let interp_outcome = Prog_gen.interp_outcome
let sim_outcome = Prog_gen.sim_outcome
let same_outcome = Prog_gen.same_outcome
let gen_hlo_config = Prog_gen.gen_hlo_config

(* ------------------------------------------------------------------ *)
(* Properties.                                                         *)

let count = 60  (* cases per property; each compiles and runs programs *)

let prop_sim_agrees_with_interp =
  QCheck.Test.make ~count ~name:"simulator agrees with interpreter"
    arbitrary_program (fun p -> same_outcome (interp_outcome p) (sim_outcome p))

let prop_optimizer_preserves =
  QCheck.Test.make ~count ~name:"optimizer preserves semantics"
    arbitrary_program (fun p ->
      let p' = Opt.Pipeline.optimize_program p in
      (match Ucode.Validate.check_program p' with
      | [] -> ()
      | errors ->
        QCheck.Test.fail_report (Ucode.Validate.errors_to_string errors));
      same_outcome (interp_outcome p) (interp_outcome p'))

let prop_each_pass_preserves =
  let passes =
    [ ("constprop", fun r -> fst (Opt.Constprop.run r));
      ("copyprop", fun r -> fst (Opt.Copyprop.run r));
      ("licm", fun r -> fst (Opt.Licm.run r));
      ("strength", fun r -> fst (Opt.Strength.run r));
      ("cse", fun r -> fst (Opt.Cse.run r));
      ("dce", fun r -> fst (Opt.Dce.run r));
      ("simplify", fun r -> fst (Opt.Simplify.run r)) ]
  in
  QCheck.Test.make ~count ~name:"every single pass preserves semantics"
    arbitrary_program (fun p ->
      let reference = interp_outcome p in
      List.for_all
        (fun (name, pass) ->
          let p' = { p with U.p_routines = List.map pass p.U.p_routines } in
          (match Ucode.Validate.check_program p' with
          | [] -> ()
          | errors ->
            QCheck.Test.fail_report
              (name ^ " broke validation:\n"
              ^ Ucode.Validate.errors_to_string errors));
          let out = interp_outcome p' in
          if same_outcome reference out then true
          else
            QCheck.Test.fail_report
              (Printf.sprintf "%s changed output:\n%s\nvs\n%s" name reference out))
        passes)

(* Training, profile handling, the driver run and the observable
   comparison all live in the semantic oracle now; the property just
   adds the operation-cap assertion on top. *)
let prop_hlo_preserves =
  QCheck.Test.make ~count ~name:"HLO preserves semantics at random configs"
    (QCheck.pair arbitrary_program (QCheck.make gen_hlo_config))
    (fun (p, config) ->
      let check = { Oracle.default_check with Oracle.ck_config = config } in
      let res = Oracle.check_transform ~interp_config check p in
      (match config.Hlo.Config.max_operations with
      | Some cap ->
        if Hlo.Report.total_operations res.Oracle.tr_driver.Hlo.Driver.report > cap
        then QCheck.Test.fail_report "operation cap exceeded"
      | None -> ());
      match res.Oracle.tr_verdict with
      | None -> true
      | Some (cls, detail) ->
        QCheck.Test.fail_report
          (Printf.sprintf "oracle mismatch [%s]: %s\n  pre:  %s\n  post: %s"
             cls detail
             (Oracle.outcome_to_string res.Oracle.tr_pre)
             (Oracle.outcome_to_string res.Oracle.tr_post)))

let prop_hlo_then_sim_agrees =
  QCheck.Test.make ~count:30 ~name:"HLO output runs identically on the machine"
    arbitrary_program (fun p ->
      let profile =
        match Interp.run ~config:{ interp_config with Interp.profile = true } p with
        | r -> r.Interp.profile
        | exception Interp.Trap _ -> Ucode.Profile.empty
      in
      let res = Hlo.Driver.run ~profile p in
      same_outcome (interp_outcome res.Hlo.Driver.program)
        (sim_outcome res.Hlo.Driver.program))

(* Each routine's entry count minus the calls that should have reached
   it: incoming direct site counts plus indirect target counts (plus 1
   for main). *)
let flow_shortfall (p : U.program) (prof : Ucode.Profile.t) =
  let cg = Ucode.Callgraph.build p in
  List.map
    (fun (routine : U.routine) ->
      let entry = Ucode.Profile.entry_count prof routine in
      let direct =
        List.fold_left
          (fun acc (e : Ucode.Callgraph.edge) ->
            match e.Ucode.Callgraph.e_callee with
            | U.Direct _ ->
              acc +. Ucode.Profile.site_count prof e.Ucode.Callgraph.e_site
            | U.Indirect _ -> acc)
          0.0
          (Ucode.Callgraph.incoming cg routine.U.r_name)
      in
      let indirect =
        List.fold_left
          (fun acc (e : Ucode.Callgraph.edge) ->
            match e.Ucode.Callgraph.e_callee with
            | U.Indirect _ ->
              acc
              +. (List.assoc_opt routine.U.r_name
                    (Ucode.Profile.site_targets prof e.Ucode.Callgraph.e_site)
                 |> Option.value ~default:0.0)
            | U.Direct _ -> acc)
          0.0 cg.Ucode.Callgraph.cg_edges
      in
      let expected =
        direct +. indirect +. if routine.U.r_name = p.U.p_main then 1.0 else 0.0
      in
      expected -. entry)
    p.U.p_routines

let prop_profile_conserves_calls =
  QCheck.Test.make ~count ~name:"profile site counts equal dynamic calls"
    arbitrary_program (fun p ->
      match Interp.run ~config:{ interp_config with Interp.profile = true } p with
      | exception Interp.Trap _ -> QCheck.assume_fail ()
      | r ->
        List.for_all
          (fun d -> Float.abs d < 0.0001)
          (flow_shortfall p r.Interp.profile))

(* A run that traps reports the profile at the trap: calls balance
   entries exactly, except the one call a depth or arity trap stopped
   between counting its site and entering its callee. *)
let prop_trapped_profile_is_profile_at_trap =
  QCheck.Test.make ~count ~name:"trapped training profile is the profile at the trap"
    (QCheck.make ~print:(fun sh -> Prog_gen.print_sources (Prog_gen.render_shape sh))
       (Prog_gen.gen_shape Prog_gen.wild_opts))
    (fun sh ->
      let p, _ = Minic.Compile.compile_program (Prog_gen.render_shape sh) in
      let config = { interp_config with Interp.profile = true } in
      let prof, in_flight =
        match Interp.run_outcome ~config p with
        | Interp.Finished r -> (r.Interp.profile, 0.0)
        | Interp.Trapped { trap; partial; _ } ->
          ( partial.Interp.profile,
            match trap with
            | Interp.Call_depth_exceeded | Interp.Indirect_arity_mismatch _ -> 1.0
            | _ -> 0.0 )
      in
      let shortfall = flow_shortfall p prof in
      List.for_all (fun d -> d = 0.0 || d = in_flight) shortfall
      && List.fold_left ( +. ) 0.0 shortfall = in_flight)

let prop_copy_body_validates =
  QCheck.Test.make ~count ~name:"renamed copies remain well-formed"
    arbitrary_program (fun p ->
      List.for_all
        (fun (r : U.routine) ->
          let next = ref 10_000 in
          let fresh () = let s = !next in incr next; s in
          let copy =
            Ucode.Rename.copy_body r ~reg_base:100 ~label_base:50
              ~fresh_site:fresh
          in
          let as_routine =
            { r with
              U.r_blocks = copy.Ucode.Rename.cp_blocks;
              r_params = copy.Ucode.Rename.cp_params;
              r_next_reg = copy.Ucode.Rename.cp_next_reg;
              r_next_label = copy.Ucode.Rename.cp_next_label }
          in
          Ucode.Validate.check_routine as_routine = [])
        p.U.p_routines)

(* ------------------------------------------------------------------ *)
(* Bitset liveness vs the set equations.                               *)

(* Reference solver: live_out(b) = U live_in(s) over the successors
   that are blocks, live_in(b) = use(b) U (live_out(b) - def(b)),
   iterated from empty sets to the fixpoint. *)
let reference_liveness (r : U.routine) =
  let module S = U.Int_set in
  (* use: read before any definition in the block (walking back from
     the terminator); def: defined in the block. *)
  let use_def (b : U.block) =
    let step i (use, def) =
      let uses = S.of_list (U.instr_uses i) in
      match U.instr_def i with
      | Some d -> (S.union uses (S.remove d use), S.add d def)
      | None -> (S.union uses use, def)
    in
    List.fold_right step b.U.b_instrs (S.of_list (U.term_uses b.U.b_term), S.empty)
  in
  let tbl = Hashtbl.create 16 in
  List.iter (fun (b : U.block) -> Hashtbl.replace tbl b.U.b_id (S.empty, S.empty))
    r.U.r_blocks;
  let live_in l = match Hashtbl.find_opt tbl l with Some (i, _) -> i | None -> S.empty in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (b : U.block) ->
        let out =
          List.fold_left (fun acc t -> S.union acc (live_in t)) S.empty
            (U.term_targets b.U.b_term)
        in
        let use, def = use_def b in
        let in_ = S.union use (S.diff out def) in
        let old_in, old_out = Hashtbl.find tbl b.U.b_id in
        if not (S.equal in_ old_in && S.equal out old_out) then begin
          Hashtbl.replace tbl b.U.b_id (in_, out);
          changed := true
        end)
      r.U.r_blocks
  done;
  tbl

(* Every block's sets agree with the reference; otherwise returns every
   disagreement. *)
let liveness_mismatch (r : U.routine) : string option =
  let module S = U.Int_set in
  let t = Opt.Liveness.compute r in
  let reference = reference_liveness r in
  let collect iter l = let acc = ref [] in iter (fun x -> acc := x :: !acc) t l; List.rev !acc in
  let problems = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt in
  List.iter
    (fun (b : U.block) ->
      let l = b.U.b_id in
      let ref_in, ref_out = Hashtbl.find reference l in
      if collect Opt.Liveness.iter_live_in l <> S.elements ref_in then
        fail "%s: live-in of block %d" r.U.r_name l;
      if collect Opt.Liveness.iter_live_out l <> S.elements ref_out then
        fail "%s: live-out of block %d" r.U.r_name l;
      for x = 0 to r.U.r_next_reg - 1 do
        if Opt.Liveness.live_in t l x <> S.mem x ref_in then
          fail "%s: membership of r%d in block %d" r.U.r_name x l
      done)
    r.U.r_blocks;
  match !problems with [] -> None | ps -> Some (String.concat "\n" (List.rev ps))

let prop_liveness_matches_reference =
  QCheck.Test.make ~count ~name:"bitset liveness matches the set equations"
    arbitrary_program (fun p ->
      let optimized = Opt.Pipeline.optimize_program p in
      List.for_all
        (fun r ->
          match liveness_mismatch r with
          | None -> true
          | Some m -> QCheck.Test.fail_report m)
        (p.U.p_routines @ optimized.U.p_routines))

(* Hand-built shapes the generator never makes.  Registers 60-70
   straddle the first word boundary of the bitsets. *)
let test_liveness_edge_cases () =
  let routine ?(params = []) ~next_reg blocks =
    { U.r_name = "edge"; r_module = "m"; r_params = params; r_blocks = blocks;
      r_next_reg = next_reg; r_next_label = 8; r_attrs = U.default_attrs;
      r_linkage = U.Exported; r_origin = U.From_source }
  in
  let block id instrs term = { U.b_id = id; b_instrs = instrs; b_term = term } in
  let cases =
    [ ( "unreachable blocks",
        routine ~params:[ 0 ] ~next_reg:71
          [ block 0 [ U.Const (63, 1L) ] (U.Return (Some 0));
            block 1 [ U.Binop (70, U.Add, 62, 63) ] (U.Jump 2);
            block 2 [ U.Const (62, 2L) ] (U.Return (Some 70)) ] );
      ( "self-loop",
        routine ~params:[ 0; 1 ] ~next_reg:66
          [ block 0 [ U.Const (65, 0L) ] (U.Jump 1);
            block 1
              [ U.Binop (65, U.Add, 65, 1); U.Binop (64, U.Lt, 65, 0);
                U.Const (2, 9L) ]
              (U.Branch (64, 1, 2));
            block 2 [] (U.Return (Some 65)) ] );
      ( "jump to a missing label",
        routine ~params:[ 0 ] ~next_reg:3
          [ block 0 [ U.Const (1, 5L); U.Const (2, 6L) ] (U.Branch (0, 1, 7));
            block 1 [] (U.Return (Some 1)) ] );
      ( "zero registers",
        routine ~next_reg:0
          [ block 0 [] (U.Jump 1); block 1 [] (U.Return None) ] ) ]
  in
  List.iter
    (fun (name, r) ->
      (* Only the missing label breaks validation. *)
      (match Ucode.Validate.check_routine r with
      | [] -> ()
      | [ _ ] when name = "jump to a missing label" -> ()
      | errors ->
        Alcotest.failf "%s: unexpected fixture errors: %s" name
          (Ucode.Validate.errors_to_string errors));
      match liveness_mismatch r with
      | None -> ()
      | Some m -> Alcotest.failf "%s: %s" name m)
    cases

(* ------------------------------------------------------------------ *)
(* Cache model vs reference implementation.                            *)

(* Naive reference: per set, an LRU list of tags. *)
let reference_cache (cfg : Machine.Cache.config) (addrs : int list) :
    bool list =
  let sets = Array.make cfg.Machine.Cache.sets [] in
  List.map
    (fun addr ->
      let line = addr / cfg.Machine.Cache.line_words in
      let set = line mod cfg.Machine.Cache.sets in
      let tag = line / cfg.Machine.Cache.sets in
      let current = sets.(set) in
      let hit = List.mem tag current in
      let without = List.filter (fun t -> t <> tag) current in
      let updated = tag :: without in
      let updated =
        if List.length updated > cfg.Machine.Cache.assoc then
          List.filteri (fun i _ -> i < cfg.Machine.Cache.assoc) updated
        else updated
      in
      sets.(set) <- updated;
      hit)
    addrs

let gen_cache_case : (Machine.Cache.config * int list) Gen.t =
 fun st ->
  let cfg =
    { Machine.Cache.sets = 1 lsl Gen.int_range 0 4 st;
      assoc = Gen.int_range 1 4 st;
      line_words = 1 lsl Gen.int_range 0 3 st }
  in
  let n = Gen.int_range 1 200 st in
  let addrs = List.init n (fun _ -> Gen.int_range 0 512 st) in
  (cfg, addrs)

let prop_cache_matches_reference =
  QCheck.Test.make ~count:300 ~name:"cache model matches reference LRU"
    (QCheck.make gen_cache_case) (fun (cfg, addrs) ->
      let c = Machine.Cache.create cfg in
      let got = List.map (fun a -> Machine.Cache.access c a) addrs in
      let want = reference_cache cfg addrs in
      got = want
      && c.Machine.Cache.accesses = List.length addrs
      && c.Machine.Cache.misses
         = List.length (List.filter (fun h -> not h) want))

(* ------------------------------------------------------------------ *)
(* Branch predictor vs reference implementation.                       *)

type branch_event =
  | Cond of int * bool  (** pc, taken *)
  | Uncond
  | Always_miss

(* Naive reference: one 2-bit counter per table entry, found by the
   address modulo the size, starting weakly not-taken and predicting
   taken from 2 up. *)
let reference_predictor entries events =
  let counters = Array.make entries 1 in
  let branches = ref 0 and mispredicts = ref 0 in
  let results =
    List.filter_map
      (fun ev ->
        incr branches;
        match ev with
        | Cond (pc, taken) ->
          let i = pc mod entries in
          let c = counters.(i) in
          let correct = (c >= 2) = taken in
          if not correct then incr mispredicts;
          counters.(i) <- (if taken then min 3 (c + 1) else max 0 (c - 1));
          Some correct
        | Uncond -> None
        | Always_miss ->
          incr mispredicts;
          None)
      events
  in
  (results, !branches, !mispredicts)

let gen_predictor_case : (int * branch_event list) Gen.t =
 fun st ->
  let entries = 1 lsl Gen.int_range 0 6 st in
  (* Few distinct branches, each biased one way, so counters saturate
     both ways and share entries. *)
  let pcs = Array.init (Gen.int_range 1 8 st) (fun _ -> Gen.int_range 0 300 st) in
  let bias = Array.map (fun _ -> Gen.float_range 0.0 1.0 st) pcs in
  let event st =
    match Gen.int_range 0 9 st with
    | 0 -> Uncond
    | 1 -> Always_miss
    | _ ->
      let k = Gen.int_range 0 (Array.length pcs - 1) st in
      Cond (pcs.(k), Gen.float_range 0.0 1.0 st < bias.(k))
  in
  (entries, List.init (Gen.int_range 1 300 st) (fun _ -> event st))

let prop_predictor_matches_reference =
  QCheck.Test.make ~count:300
    ~name:"branch predictor matches reference 2-bit counters"
    (QCheck.make gen_predictor_case) (fun (entries, events) ->
      let p = Machine.Branch_predictor.create ~entries () in
      let got =
        List.filter_map
          (function
            | Cond (pc, taken) ->
              Some (Machine.Branch_predictor.conditional p ~pc ~taken)
            | Uncond ->
              Machine.Branch_predictor.unconditional p;
              None
            | Always_miss ->
              Machine.Branch_predictor.always_mispredicted p;
              None)
          events
      in
      let want, branches, mispredicts = reference_predictor entries events in
      got = want
      && p.Machine.Branch_predictor.branches = branches
      && p.Machine.Branch_predictor.mispredicts = mispredicts
      && p.Machine.Branch_predictor.conditional = List.length want)

let () =
  let to_alcotest = QCheck_alcotest.to_alcotest in
  Alcotest.run "properties"
    [ ( "differential",
        [ to_alcotest prop_sim_agrees_with_interp;
          to_alcotest prop_optimizer_preserves;
          to_alcotest prop_each_pass_preserves;
          to_alcotest prop_hlo_preserves;
          to_alcotest prop_hlo_then_sim_agrees ] );
      ( "structure",
        [ to_alcotest prop_profile_conserves_calls;
          to_alcotest prop_trapped_profile_is_profile_at_trap;
          to_alcotest prop_copy_body_validates;
          to_alcotest prop_cache_matches_reference;
          to_alcotest prop_predictor_matches_reference ] );
      ( "liveness",
        [ to_alcotest prop_liveness_matches_reference;
          Alcotest.test_case "hand-built edge cases" `Quick
            test_liveness_edge_cases ] ) ]
