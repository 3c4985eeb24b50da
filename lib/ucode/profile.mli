(** The profile database (the paper's PBO data): basic-block execution
    counts, call-site counts and indirect-call target histograms from a
    training run, kept coherent under inlining and cloning by scaled
    transfers.

    Counts are floats because transformations attribute *fractions* of
    a routine's executions to copies; conservation of flow is the
    invariant the property tests check. *)

type t = {
  blocks : float Types.Int_map.t Types.String_map.t;
      (** routine -> block label -> execution count *)
  sites : float Types.Int_map.t;  (** call site -> execution count *)
  targets : (string * float) list Types.Int_map.t;
      (** indirect call site -> (callee, count) histogram *)
}

val empty : t
val is_empty : t -> bool

val block_count : t -> routine:string -> block:Types.label -> float

(** [block_counts t routine] resolves the routine once and returns its
    {!block_count} by label: a caller that reads many blocks of one
    routine applies it once. *)
val block_counts : t -> string -> Types.label -> float
val site_count : t -> Types.site -> float
val site_targets : t -> Types.site -> (string * float) list

(** All recorded block counts of one routine, sorted by label. *)
val blocks_of_routine : t -> string -> (Types.label * float) list

(** Count of the routine's entry block = its dynamic invocations. *)
val entry_count : t -> Types.routine -> float

val add_block : t -> routine:string -> block:Types.label -> float -> t
val add_site : t -> Types.site -> float -> t
val add_target : t -> Types.site -> string -> float -> t

(** Credit a copy (described by the renaming maps of {!Rename}) with
    [factor] times the original's counts. *)
val transfer_copy :
  t ->
  from_routine:string ->
  into_routine:string ->
  block_map:(Types.label * Types.label) list ->
  site_map:(Types.site * Types.site) list ->
  factor:float ->
  t

(** Scale every count attributed to the routine (blocks and the sites
    its blocks contain) by [factor]. *)
val scale_routine : t -> Types.routine -> float -> t

(** Give a whole-routine clone [factor] of the original's counts and
    leave the original with the remainder. *)
val split_for_clone :
  t ->
  original:string ->
  clone_name:string ->
  site_map:(Types.site * Types.site) list ->
  factor:float ->
  Types.routine ->
  t

val pp : Format.formatter -> t -> unit
