(** The whole-program compile pipeline — train, HLO, render, run — and
    the one mapping from its failures to messages.

    `hloc` (in-process, in every mode that optimizes), the `hlod`
    service and the tests all run these functions, so a daemon-served
    compile is bit-identical to a local one by construction: there is
    no second pipeline to keep in sync.

    Output is an ordered list of [(channel, text)] pieces: ["diag"]
    goes to stderr, every other channel to stdout, in list order.  A
    piece is produced only when the options select it:

    {v
      diag        always            compiler diagnostics
      train       co_stats          "[train] N IR steps, output B bytes"
      profile     co_dump_profile   the training profile database
      report      co_stats          "[hlo] ..."
      ir          co_dump_ir        the optimized ucode
      asm         co_dump_asm       the VR32 disassembly
      journal     co_dump_journal   the decision journal (see {!journal})
      run_output  a runner          what the program printed
      run_stats   a runner, co_stats "[interp] ..." / "[sim] ..."
    v} *)

type piece = string * string

(** A compile that stopped.  [kind] is ["compile_error"], ["trap"] or
    ["internal"]; [reason] is what `hloc` puts in its error exit
    (["compilation failed"], ["link error: ..."], ["trap in ..."],
    ["machine trap at ..."], ["invalid IR after ..."], or an I/O
    message); [outputs] are the pieces produced before the failure. *)
exception Failed of { kind : string; reason : string; outputs : piece list }

(** [guard f] runs [f], turning the pipeline's failures — compile,
    link and I/O errors, interpreter and machine traps, invalid IR —
    into {!Failed}.  A compile error carries its diagnostics as a
    ["diag"] piece; other exceptions propagate unchanged. *)
val guard : (unit -> 'a) -> 'a

(** [read_module path] is [(module name, source text)]: the module name
    is the file's basename without its extension. *)
val read_module : string -> string * string

(** Compile and link named MiniC modules with [main] as the entry; the
    pieces are the ["diag"] piece. *)
val front_end :
  main:string -> (string * string) list -> Ucode.Types.program * piece list

(** Step one: the training run when the policy uses a profile, else
    the empty profile. *)
val profile :
  Protocol.compile_options -> Ucode.Types.program ->
  Ucode.Profile.t * piece list

(** Step two: HLO under [profile], then rendering and the run.  The
    journal holds the decisions of the installed telemetry collector
    (empty when none is installed). *)
val optimize_and_run :
  Protocol.compile_options -> profile:Ucode.Profile.t ->
  Ucode.Types.program -> piece list

(** {!front_end}, {!profile} and {!optimize_and_run} in sequence: the
    pipeline from sources.  On failure, [outputs] holds every piece
    produced so far. *)
val compile : Protocol.compile_options -> (string * string) list -> piece list

(** Print pieces as `hloc` does — ["diag"] to stderr, the rest to
    stdout — and flush both. *)
val print : piece list -> unit

(** {1 Formatters} *)

(** The ["diag"] piece: one pretty-printed diagnostic per line. *)
val diag : Minic.Diag.t list -> piece

val ir : Ucode.Types.program -> string

val report_line : Hlo.Report.t -> string
(** ["[hlo] ...\n"] *)

(** The optimizer decision journal in its canonical text form: one
    line per decision —

      kind verdict[(reason)] subject<-context site=N score=S pass=P

    — wall-clock excluded, so the text is a deterministic function of
    the decisions taken. *)
val journal : Telemetry.Event.decision list -> string
