(** A parametric set-associative cache with true-LRU replacement, used
    for both the I-cache and the D-cache of the simulated machine.
    Addresses are in words. *)

type config = {
  sets : int;        (** any positive count; a power of two is indexed by
                         shift and mask, any other by division *)
  assoc : int;
  line_words : int;  (** any positive count, as for [sets] *)
}

(** Defaults sized so the mini-workloads stress the caches the way SPEC
    binaries stressed the PA8000's. *)
val default_icache : config

val default_dcache : config

type t = private {
  cfg : config;
  tags : int array;      (** [set * assoc + way] = tag, -1 empty *)
  last_use : int array;  (** [set * assoc + way] = LRU stamp, 0 empty *)
  line_shift : int;
  set_shift : int;
  mutable last_line : int;
  mutable clock : int;
  mutable accesses : int;
  mutable misses : int;
}

val create : config -> t
val size_words : t -> int

(** Access one nonnegative word address; true on hit.  Updates LRU
    state and the access/miss counters without allocating.  A repeat
    access to the line touched last takes an exact fast path: it hits
    and skips the stamp update, which cannot change any later victim
    choice. *)
val access : t -> int -> bool

(** [add_repeats t n] counts [n] repeat accesses to the line touched
    last: exactly what [n] calls of [access] on that line would do,
    since each of them hits and changes nothing but [accesses].  The
    simulator fetches through [access] only when a fetch leaves the
    line of the previous one, and credits the other fetches here in
    bulk when the run ends.  Raises [Invalid_argument] if [n] is
    negative, or positive before any access. *)
val add_repeats : t -> int -> unit

val reset : t -> unit
val miss_rate : t -> float
