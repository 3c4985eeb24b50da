(** Mutable state threaded through one HLO run: the evolving program,
    its (coherently updated) profile, the budget, the report, the
    clone database that lets later passes reuse earlier clones, the
    routine edit buffer of the stage that is editing the program, and
    the scalar optimizer's memo of converged routines. *)

type clone_entry = {
  ce_name : string;
  ce_site_map : (Ucode.Types.site * Ucode.Types.site) list;
      (** original site -> clone-body site, for profile transfer *)
}

(** The routine edit buffer of one editing stage (clone, inline,
    outline): the program's routines in order in a growable array,
    with a name -> slot table beside it. *)
type edits

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

(** Allocate a program-unique call-site id (bumps [p_next_site]). *)
val fresh_site : t -> Ucode.Types.site

val fresh_clone_name : t -> string -> string

(** Record an operation; trips [stop] at the configured cap. *)
val note_operation : t -> Report.operation -> unit

(** May HLO still transform? *)
val running : t -> bool
