(** Content hashing of routine bodies.

    The in-process summary cache (lib/hlo/summary_cache.ml) memoizes
    per-routine analyses — size, loop structure — under a key that
    identifies the routine by *what it computes*, not what it is
    called.  Two bodies that differ only in their name, home module,
    origin or call-site ids hash identically, so a clone shares its
    original's cache entry and a routine keeps its entry across
    passes even though inlining re-sites the calls it copies.

    The digest is computed over the packed flat view ({!Flat}): one
    walk flattens the body into int arrays, and the hash is an MD5 of
    their fixed-width binary serialization — no per-constructor
    buffer-and-string traffic.  Call-site ids are deliberately
    excluded: they are program-unique serial numbers, so including
    them would make every copy of a body — every clone, every relink —
    a cache miss. *)

open Types

type t = string
(** Hex digest. *)

let routine_body_hash (r : routine) : t = Flat.routine_hash r

(** Digest of arbitrary bytes in the same hex format as routine
    hashes; used for source-content and export-environment hashes in
    the isom layer. *)
let string_hash (s : string) : t = Digest.to_hex (Digest.string s)

let pp = Fmt.string
