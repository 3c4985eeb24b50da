(** The whole-program pipeline; see the interface. *)

module P = Protocol

type piece = string * string

exception Failed of { kind : string; reason : string; outputs : piece list }

(* ------------------------------------------------------------------ *)
(* Rendering.                                                          *)

let train_line (r : Interp.result) =
  Fmt.str "[train] %d IR steps, output %d bytes@." r.Interp.steps
    (String.length r.Interp.output)

let profile_text p = Fmt.str "%a@." Ucode.Profile.pp p

let report_line r = Fmt.str "[hlo] %a@." Hlo.Report.pp r

let ir p = Fmt.str "%a@." Ucode.Pp.pp_program p

let asm p = Fmt.str "%a@." Machine.Layout.pp (Machine.Layout.build p)

let journal (decisions : Telemetry.Event.decision list) =
  let module E = Telemetry.Event in
  let buf = Buffer.create 256 in
  List.iter
    (fun (d : E.decision) ->
      let reason =
        match d.E.d_verdict with
        | E.Accepted -> ""
        | E.Rejected r -> "(" ^ r ^ ")"
      in
      Buffer.add_string buf
        (Printf.sprintf "%s %s%s %s<-%s site=%d score=%.6g pass=%d\n"
           (E.kind_name d.E.d_kind)
           (E.verdict_name d.E.d_verdict)
           reason d.E.d_subject d.E.d_context d.E.d_site d.E.d_score
           d.E.d_pass))
    decisions;
  Buffer.contents buf

let interp_stats_line (r : Interp.result) =
  Fmt.str "[interp] exit=%Ld steps=%d@." r.Interp.exit_code r.Interp.steps

let sim_stats_line (r : Machine.Sim.result) =
  Fmt.str "[sim] exit=%Ld %a@." r.Machine.Sim.exit_code Machine.Metrics.pp
    r.Machine.Sim.metrics

let diag_text diags =
  String.concat "" (List.map (fun d -> Fmt.str "%a@." Minic.Diag.pp d) diags)

let diag diags = ("diag", diag_text diags)

let print pieces =
  List.iter
    (fun (channel, text) ->
      if channel = "diag" then prerr_string text else print_string text)
    pieces;
  flush stdout;
  flush stderr

(* ------------------------------------------------------------------ *)
(* Failures.                                                           *)

let guard f =
  let fail kind reason outputs = raise (Failed { kind; reason; outputs }) in
  try f () with
  | Minic.Diag.Compile_error diags ->
    fail "compile_error" "compilation failed" [ diag diags ]
  | Ucode.Linker.Link_error msg ->
    fail "compile_error" ("link error: " ^ msg) []
  | Sys_error msg -> fail "compile_error" msg []
  | Interp.Trap (trap, where) ->
    fail "trap"
      (Printf.sprintf "trap in %s: %s" where (Interp.trap_message trap))
      []
  | Machine.Sim.Trap (trap, pc) ->
    fail "trap"
      (Printf.sprintf "machine trap at %d: %s" pc
         (Machine.Sim.trap_message trap))
      []
  | Hlo.Driver.Invalid_ir { stage; errors } ->
    fail "internal" (Printf.sprintf "invalid IR after %s: %s" stage errors) []

(* Run [f] with an emitter, returning its result and the pieces it
   emitted; a failure carries the pieces emitted before it. *)
let collect f =
  let produced = ref [] in
  let emit channel text = produced := (channel, text) :: !produced in
  match guard (fun () -> f emit) with
  | x -> (x, List.rev !produced)
  | exception Failed { kind; reason; outputs } ->
    raise (Failed { kind; reason; outputs = List.rev_append !produced outputs })

(* ------------------------------------------------------------------ *)
(* The steps.                                                          *)

let read_module path =
  ( Filename.remove_extension (Filename.basename path),
    In_channel.with_open_bin path In_channel.input_all )

let compile_modules emit ~main modules =
  let sources =
    List.map
      (fun (name, text) -> Minic.Compile.source ~module_name:name text)
      modules
  in
  let program, diags =
    Telemetry.Collector.with_span "minic.compile" (fun () ->
        Minic.Compile.compile_program ~main sources)
  in
  emit "diag" (diag_text diags);
  program

let train emit (o : P.compile_options) program =
  if o.P.co_config.Hlo.Config.use_profile then begin
    let r = Interp.train program in
    if o.P.co_stats then emit "train" (train_line r);
    r.Interp.profile
  end
  else Ucode.Profile.empty

let optimize emit (o : P.compile_options) ~profile program =
  if o.P.co_dump_profile then emit "profile" (profile_text profile);
  let result = Hlo.Driver.run ~config:o.P.co_config ~profile program in
  let optimized = result.Hlo.Driver.program in
  if o.P.co_stats then emit "report" (report_line result.Hlo.Driver.report);
  if o.P.co_dump_ir then emit "ir" (ir optimized);
  if o.P.co_dump_asm then emit "asm" (asm optimized);
  if o.P.co_dump_journal then
    emit "journal"
      (match Telemetry.Collector.active () with
      | Some c -> journal (Telemetry.Collector.decisions c)
      | None -> "");
  match o.P.co_runner with
  | P.Run_none -> ()
  | P.Run_interp ->
    let r = Interp.run optimized in
    emit "run_output" r.Interp.output;
    if o.P.co_stats then emit "run_stats" (interp_stats_line r)
  | P.Run_sim ->
    let r = Machine.Sim.run_program optimized in
    emit "run_output" r.Machine.Sim.output;
    if o.P.co_stats then emit "run_stats" (sim_stats_line r)

let front_end ~main modules =
  collect (fun emit -> compile_modules emit ~main modules)

let profile o program = collect (fun emit -> train emit o program)

let optimize_and_run o ~profile program =
  snd (collect (fun emit -> optimize emit o ~profile program))

let compile (o : P.compile_options) modules =
  snd
    (collect (fun emit ->
         let program = compile_modules emit ~main:o.P.co_main modules in
         let profile = train emit o program in
         optimize emit o ~profile program))
