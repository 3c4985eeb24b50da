(** The process-wide pool of OCaml 5 domains and its *deterministic*
    parallel map: results land by input index, and the first failing
    item (by index) is the one re-raised, whatever order the items
    finish in.  Items are grouped into chunks of ~[n / (4 * jobs)],
    handed out from one shared [Atomic.fetch_and_add] cursor.  With one
    job, or when called from inside a pool worker, the map runs inline
    — nested maps cannot deadlock and the sequential path is exactly
    [List.map].

    The degree defaults to the [HLO_JOBS] environment variable (else 1;
    an unparsable or out-of-range value counts as 1) and is overridden
    by [set_jobs] (e.g. from [hloc --jobs]). *)

(** The largest degree [set_jobs] accepts: half the 64-bit runtime's
    limit of 128 domains per process, so the pool never meets that
    limit.  The command lines reject a larger [--jobs] as a usage
    error. *)
val max_jobs : int

(** Set the parallelism degree; values below 1 mean 1.  The warm
    workers survive: shrinking joins only the surplus, and the next
    map spawns only the missing ones.  Raises [Invalid_argument]
    above {!max_jobs}, before touching the pool. *)
val set_jobs : int -> unit

val get_jobs : unit -> int

(** [map_list f xs] = [List.map f xs], computed on [get_jobs ()]
    executors: the caller and [get_jobs () - 1] worker domains. *)
val map_list : ('a -> 'b) -> 'a list -> 'b list

(** Test hook: the lifetime count of domains the pool has spawned.
    Consecutive maps at an unchanged degree must not move it. *)
val spawned : unit -> int
