(* Prints the training profile of every workload (train input) and of
   fixed-seed random programs, trapping ones included: every block
   count, every site count and every indirect-call target histogram in
   its recorded order ([Ucode.Profile.pp] leaves the histograms out).
   The dune rule next to this file diffs the output against
   train_profiles.expected. *)

module P = Ucode.Profile
module U = Ucode.Types

let count c = Printf.sprintf "%.17g" c

let print_profile (p : P.t) =
  U.String_map.iter
    (fun routine m ->
      U.Int_map.iter
        (fun b c -> Printf.printf "block %s %d %s\n" routine b (count c))
        m)
    p.P.blocks;
  U.Int_map.iter (fun s c -> Printf.printf "site %d %s\n" s (count c)) p.P.sites;
  U.Int_map.iter
    (fun s hist ->
      Printf.printf "targets %d%s\n" s
        (String.concat ""
           (List.map (fun (n, c) -> Printf.sprintf " %s=%s" n (count c)) hist)))
    p.P.targets

let workloads () =
  List.iter
    (fun (b : Workloads.Suite.benchmark) ->
      let r =
        Interp.train (Workloads.Suite.compile b ~input:Workloads.Suite.Train)
      in
      Printf.printf "== %s train: exit=%Ld steps=%d\n" b.Workloads.Suite.b_name
        r.Interp.exit_code r.Interp.steps;
      print_profile r.Interp.profile)
    Workloads.Suite.all

(* Wild shapes: indirect calls, arity mismatches and trapping
   operations, so some runs stop at a trap and report the profile
   gathered up to it. *)
let random_programs () =
  let config = { Prog_gen.interp_config with Interp.profile = true } in
  for seed = 1 to 80 do
    let st = Random.State.make [| seed |] in
    let sources =
      Prog_gen.render_shape (Prog_gen.gen_shape Prog_gen.wild_opts st)
    in
    let p, _ = Minic.Compile.compile_program sources in
    match Interp.run_outcome ~config p with
    | Interp.Finished r ->
      Printf.printf "== random %d: exit=%Ld steps=%d\n" seed r.Interp.exit_code
        r.Interp.steps;
      print_profile r.Interp.profile
    | Interp.Trapped { trap; routine; partial } ->
      Printf.printf "== random %d: trap in %s (%s) steps=%d\n" seed routine
        (Interp.trap_message trap) partial.Interp.steps;
      print_profile partial.Interp.profile
  done

let () =
  workloads ();
  random_programs ()
