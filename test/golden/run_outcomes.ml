(* Prints what every run observably did: the exit code or trap, the
   steps, and digests of the output and of the final (or trap-time)
   globals.  Covers the fourteen workloads on the train and the ref
   input through [Interp.run], and the fixed-seed random programs of
   train_profiles.ml through [Interp.run_outcome], trapping ones
   included.  The dune rule next to this file diffs the output against
   run_outcomes.expected. *)

let digest s = Digest.to_hex (Digest.string s)

let globals_digest globals =
  let b = Buffer.create 256 in
  List.iter
    (fun (name, cells) ->
      Buffer.add_string b name;
      Array.iter (fun v -> Buffer.add_string b (Printf.sprintf " %Ld" v)) cells;
      Buffer.add_char b '\n')
    globals;
  digest (Buffer.contents b)

let observed (r : Interp.result) =
  Printf.sprintf "steps=%d output=%d:%s globals=%s" r.Interp.steps
    (String.length r.Interp.output) (digest r.Interp.output)
    (globals_digest r.Interp.globals)

let workloads () =
  List.iter
    (fun (input, tag) ->
      List.iter
        (fun (b : Workloads.Suite.benchmark) ->
          let r = Interp.run (Workloads.Suite.compile b ~input) in
          Printf.printf "== %s %s: exit=%Ld %s\n" b.Workloads.Suite.b_name tag
            r.Interp.exit_code (observed r))
        Workloads.Suite.all)
    [ (Workloads.Suite.Train, "train"); (Workloads.Suite.Ref, "ref") ]

let random_programs () =
  for seed = 1 to 80 do
    let st = Random.State.make [| seed |] in
    let sources =
      Prog_gen.render_shape (Prog_gen.gen_shape Prog_gen.wild_opts st)
    in
    let p, _ = Minic.Compile.compile_program sources in
    match Interp.run_outcome ~config:Prog_gen.interp_config p with
    | Interp.Finished r ->
      Printf.printf "== random %d: exit=%Ld %s\n" seed r.Interp.exit_code
        (observed r)
    | Interp.Trapped { trap; routine; partial } ->
      Printf.printf "== random %d: trap in %s (%s) %s\n" seed routine
        (Interp.trap_message trap) (observed partial)
  done

let () =
  workloads ();
  random_programs ()
