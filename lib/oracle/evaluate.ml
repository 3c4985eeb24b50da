(* The oracle-gated measure step; see the interface. *)

type subject = {
  name : string;
  program : Ucode.Types.program;
  profile : Ucode.Profile.t;
  train_seconds : float;
  reference : Sem.outcome;
}

exception Rejected of { subject : string; cls : string; detail : string }

let () =
  Printexc.register_printer (function
    | Rejected { subject; cls; detail } ->
      Some (Printf.sprintf "evaluate: %s rejected: %s (%s)" subject cls detail)
    | _ -> None)

let reject name cls detail = raise (Rejected { subject = name; cls; detail })

let prepare ~name ~train program =
  let reference = Sem.observe program in
  (match reference with
  | Sem.Finished _ -> ()
  | Sem.Trapped { kind; _ } -> reject name "reference" ("trapped: " ^ kind)
  | Sem.Diverged what -> reject name "reference" ("diverged: " ^ what));
  let t0 = Sys.time () in
  let profile = (Interp.train train).Interp.profile in
  { name; program; profile; train_seconds = Sys.time () -. t0; reference }

type result = {
  optimized : Ucode.Types.program;
  report : Hlo.Report.t;
  observed : Sem.observation;
  image : Machine.Layout.image;
  metrics : Machine.Metrics.t;
  hlo_seconds : float;
}

(* The simulator half of the guard: the image must print what the
   interpreter printed and exit as it exited. *)
let simulate ?sim_config name (observed : Sem.observation) image =
  let sim =
    try Machine.Sim.run ?config:sim_config image
    with Machine.Sim.Trap (trap, pc) ->
      reject name "sim_trap"
        (Printf.sprintf "machine trap at %d: %s" pc
           (Machine.Sim.trap_message trap))
  in
  if not (String.equal sim.Machine.Sim.output observed.Sem.ob_output) then
    reject name "sim_output" "simulator output differs from the interpreter's";
  if not (Int64.equal sim.Machine.Sim.exit_code observed.Sem.ob_exit) then
    reject name "sim_exit"
      (Printf.sprintf "simulator exit %Ld, interpreter exit %Ld"
         sim.Machine.Sim.exit_code observed.Sem.ob_exit);
  sim.Machine.Sim.metrics

let evaluate ?sim_config ?(mutation = Sem.Keep) ~(config : Hlo.Config.t)
    subject =
  let profile =
    if config.Hlo.Config.use_profile then
      Sem.mutate_profile mutation subject.profile
    else Ucode.Profile.empty
  in
  let t0 = Sys.time () in
  let r = Hlo.Driver.run ~config ~profile subject.program in
  let hlo_seconds = Sys.time () -. t0 in
  let optimized = r.Hlo.Driver.program in
  let post = Sem.observe optimized in
  let observed =
    match (Sem.compare_outcomes ~pre:subject.reference ~post, post) with
    | Some (cls, detail), _ -> reject subject.name cls detail
    | None, Sem.Finished ob -> ob
    | None, _ -> assert false (* the reference finished *)
  in
  let image = Machine.Layout.build optimized in
  let metrics = simulate ?sim_config subject.name observed image in
  { optimized; report = r.Hlo.Driver.report; observed; image; metrics;
    hlo_seconds }

let check ?sim_config subject r program =
  simulate ?sim_config subject.name r.observed (Machine.Layout.build program)
