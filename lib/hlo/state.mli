(** Mutable state threaded through one HLO run: the evolving program,
    its (coherently updated) profile, the budget, the report, the
    clone database that lets later passes reuse earlier clones, the
    routine edit buffer of the stage that is editing the program, the
    scalar optimizer's memo of converged routines, and the table of
    facts derived from each routine (see {!call_edges}). *)

type clone_entry = {
  ce_name : string;
  ce_site_map : (Ucode.Types.site * Ucode.Types.site) list;
      (** original site -> clone-body site, for profile transfer *)
}

(** The routine edit buffer of one editing stage (clone, inline,
    outline): the program's routines in order in a growable array,
    with a name -> slot table beside it. *)
type edits

(** The facts derived from each routine, read through {!call_edges},
    {!address_refs}, {!edge_contexts} and {!param_usage}. *)
type fact_table

type t = {
  config : Config.t;
  mutable program : Ucode.Types.program;
      (** While a stage's buffer is open, [p_routines] is stale: the
          routines live in [edits] until {!with_edits} commits them.
          Every other field is current. *)
  mutable profile : Ucode.Profile.t;
  budget : Budget.t;
  report : Report.t;
  clone_db : (string, clone_entry) Hashtbl.t;  (** spec key -> entry *)
  mutable next_clone_id : int;
  mutable stop : bool;  (** the operation cap has been reached *)
  mutable edits : edits option;  (** the open stage's buffer *)
  memo : Opt.Pipeline.memo;
      (** the compile's converged optimizer runs, read and written by
          every re-optimization between stages *)
  facts : fact_table;
}

val create :
  Config.t ->
  memo:Opt.Pipeline.memo ->
  program:Ucode.Types.program ->
  profile:Ucode.Profile.t ->
  t

(** [with_edits st f] runs [f] as one editing stage.  It opens a buffer
    over [st.program]'s routines, and when [f] returns or raises it
    rebuilds [p_routines] from the buffer, once.  Inside [f], read and
    edit routines only through {!find_routine}, {!update_routine} and
    {!add_routine}, each O(1) amortized.  A call made while a buffer is
    already open joins that buffer, so a stage's helper (the region
    inliner's split) sees and makes the same edits as the stage. *)
val with_edits : t -> (unit -> 'a) -> 'a

(** The first routine of the name, as {!Ucode.Types.find_routine}.
    These four raise [Invalid_argument] when no buffer is open. *)
val find_routine : t -> string -> Ucode.Types.routine option

(** @raise Invalid_argument ["find_routine: no routine named N"]. *)
val find_routine_exn : t -> string -> Ucode.Types.routine

(** Replace every routine of [r]'s name in place, as
    {!Ucode.Types.update_routine}.
    @raise Invalid_argument ["update_routine: unknown N"]. *)
val update_routine : t -> Ucode.Types.routine -> unit

(** Append [r] after every routine present.
    @raise Invalid_argument ["add_routine: duplicate N"] when a routine
    of its name exists. *)
val add_routine : t -> Ucode.Types.routine -> unit

(** {1 Per-routine facts}

    Each function below answers exactly as the function it names does
    on the routine it is given.  The table keeps, per routine name, the
    facts of the last value of that name it was asked about, and
    answers from them while the routine passed is physically ([==])
    that value; any other value of the name (a rewrite, an optimized
    version, a duplicate definition) derives them again and replaces
    them.  Under a telemetry collector, each call counts one hit or
    one miss, published by {!publish_fact_counts}. *)

(** {!Ucode.Callgraph.edges_of_routine}. *)
val call_edges : t -> Ucode.Types.routine -> Ucode.Callgraph.edge list

(** The names the routine takes the address of ([Faddr]), in
    instruction order. *)
val address_refs : t -> Ucode.Types.routine -> string list

(** S(E): {!Summaries.edge_contexts}. *)
val edge_contexts :
  t -> Ucode.Types.routine -> Summaries.context_value list Ucode.Types.Int_map.t

(** P(R): {!Summaries.param_usage} under [config] and the current
    [profile].  Also re-derived when the routine's profile block map
    is no longer the one it was derived under. *)
val param_usage : t -> Ucode.Types.routine -> Summaries.param_usage

(** Forget the facts of a routine name (the prune's deleted routines). *)
val drop_facts : t -> string -> unit

(** Count the lookups so far as [hlo.facts.hits] and [hlo.facts.misses]
    on the telemetry collector, if one is installed. *)
val publish_fact_counts : t -> unit

(** Allocate a program-unique call-site id (bumps [p_next_site]). *)
val fresh_site : t -> Ucode.Types.site

val fresh_clone_name : t -> string -> string

(** Record an operation; trips [stop] at the configured cap. *)
val note_operation : t -> Report.operation -> unit

(** May HLO still transform? *)
val running : t -> bool
