(* Prints what each scalar optimization pass does to every routine of
   the fourteen workloads' front-end programs (train input) and of
   fixed-seed random programs, tame and wild.  Per routine, two input
   states: the front-end routine ("raw") and the routine after one
   [optimize_routine] round ("r1").  For each state, every single
   pass's output digest and changed flag ([+] changed, [-] quiet), in
   pipeline order; for the raw state also [optimize_routine]'s output
   digest and round count.  The passes get the program-level facts the
   pipeline gives them: the deletable-call set for DCE and the arities
   for devirtualization.  A digest is the first 12 hex digits of the
   MD5 of the routine marshalled without sharing, so it covers every
   field (register and label counters included).  The dune rule next
   to this file diffs the output against opt_passes.expected. *)

module U = Ucode.Types

let digest (r : U.routine) =
  String.sub
    (Digest.to_hex (Digest.string (Marshal.to_string r [ Marshal.No_sharing ])))
    0 12

let passes ~removable ~arity_of =
  [ ("simplify", Opt.Simplify.run);
    ("constprop", Opt.Constprop.run ~arity_of);
    ("copyprop", Opt.Copyprop.run);
    ("licm", Opt.Licm.run);
    ("strength", Opt.Strength.run);
    ("cse", Opt.Cse.run);
    ("dce", Opt.Dce.run ~removable) ]

let print_state ~passes tag (r : U.routine) =
  Printf.printf "  %s %s" tag (digest r);
  List.iter
    (fun (name, run) ->
      let r', changed = run r in
      Printf.printf " %s=%s%s" name (digest r') (if changed then "+" else "-"))
    passes;
  print_newline ()

let program label (p : U.program) =
  let index = Ucode.Index.of_program p in
  let deletable = Opt.Ipa.deletable_routines index p in
  let removable n = U.String_set.mem n deletable in
  let arity_of n = Ucode.Index.arity index n in
  let passes = passes ~removable ~arity_of in
  Printf.printf "== %s\n" label;
  List.iter
    (fun (r : U.routine) ->
      let stats = Opt.Pipeline.make_stats () in
      let full = Opt.Pipeline.optimize_routine ~removable ~arity_of ~stats r in
      Printf.printf "%s opt=%s rounds=%d\n" r.U.r_name (digest full)
        stats.Opt.Pipeline.rounds;
      print_state ~passes "raw" r;
      print_state ~passes "r1"
        (Opt.Pipeline.optimize_routine ~removable ~arity_of ~max_rounds:1 r))
    p.U.p_routines

let workloads () =
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      program b.Workloads.Suite.b_name
        (Workloads.Suite.compile b ~input:Workloads.Suite.Train))
    Workloads.Suite.all

let random_programs () =
  List.iter
    (fun (kind, opts) ->
      for seed = 1 to 40 do
        let st = Random.State.make [| seed |] in
        let sources = Prog_gen.render_shape (Prog_gen.gen_shape opts st) in
        program
          (Printf.sprintf "random %s %d" kind seed)
          (fst (Minic.Compile.compile_program sources))
      done)
    [ ("tame", Prog_gen.tame_opts); ("wild", Prog_gen.wild_opts) ]

let () =
  workloads ();
  random_programs ()
