(** A warm pool of OCaml 5 domains with a *deterministic* parallel map
    built on per-executor work-stealing deques: results land by input
    index, and the first failing item (by index) is the one re-raised,
    whatever order the items finish in.  Items are grouped
    into chunks of ~[n / (4 * jobs)] so a task amortizes its
    scheduling cost; an executor whose deque runs dry steals chunks
    from the others (claims are a single [Atomic.fetch_and_add] — no
    lock on the fast path).  With one job, or when called from inside
    a pool worker, the map runs inline — nested maps cannot deadlock
    and the sequential path is exactly [Array.map]. *)

type t

(** [create ~jobs] spawns [jobs - 1] worker domains (the caller of a
    map participates).  [jobs <= 1] spawns nothing. *)
val create : jobs:int -> t

val jobs : t -> int

(** Lifetime count of domains this pool has spawned.  Consecutive maps
    at an unchanged degree must not move it — the resize-reuse tests
    pin that down. *)
val spawned : t -> int

(** Resize the pool in place: spawns or joins only the delta workers,
    keeps the rest warm.  No-op at the current degree. *)
val resize : t -> int -> unit

(** Order-preserving parallel map.  [chunk_size] overrides the
    automatic ~[n / (4 * jobs)] chunking (tests sweep it; results are
    identical for any value). *)
val map_array_in :
  t -> ?chunk_size:int -> ('a -> 'b) -> 'a array -> 'b array

val map_list_in : t -> ?chunk_size:int -> ('a -> 'b) -> 'a list -> 'b list

(** Stop the workers and join them.  Idempotent. *)
val shutdown : t -> unit

(** True inside a pool worker (where maps run inline). *)
val in_worker : unit -> bool

(** {1 The ambient pool}

    The front end and the scalar optimizer use a process-wide pool so
    compilation entry points need no pool argument.  Its degree
    defaults to the [HLO_JOBS] environment variable (else 1) and is
    overridden by [set_jobs] (e.g. from [hloc --jobs]). *)

(** Set the ambient parallelism degree.  Resizes a live pool in place
    (the warm workers survive); a pool not yet created stays lazy. *)
val set_jobs : int -> unit

val get_jobs : unit -> int

(** The ambient pool, created on first use. *)
val the : unit -> t

(** [map_array f xs] on the ambient pool (inline when jobs = 1). *)
val map_array : ?chunk_size:int -> ('a -> 'b) -> 'a array -> 'b array

val map_list : ?chunk_size:int -> ('a -> 'b) -> 'a list -> 'b list
