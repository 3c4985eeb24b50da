(** Branch prediction: a table of 2-bit saturating counters indexed by
    the branch address (collisions degrade accuracy, as the paper
    worries).  Returns and indirect calls are always mispredicted, as
    on the PA8000. *)

type t = private {
  counters : int array;
  mutable branches : int;
  mutable conditional : int;
  mutable mispredicts : int;
}

(** A table of [entries] counters (default 256), indexed by the low
    bits of the branch address.  Raises [Invalid_argument] unless
    [entries] is a positive power of two. *)
val create : ?entries:int -> unit -> t

(** Record a conditional branch; true when predicted correctly. *)
val conditional : t -> pc:int -> taken:bool -> bool

(** Direct jumps/calls: counted, never mispredicted. *)
val unconditional : t -> unit

(** Returns and indirect calls: counted, always mispredicted. *)
val always_mispredicted : t -> unit

val miss_rate : t -> float
val reset : t -> unit
