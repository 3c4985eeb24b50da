(** Shared conventions for hloc's versioned on-disk stores.

    Every store the compiler persists — isom object files, the
    incremental-build manifest, policy files, the daemon's artifacts —
    shares one container discipline: a single header line carrying a magic string, a format
    version and a checksum of the payload, followed by the raw payload
    bytes.  Loading is fail-safe: a missing file, a foreign file, a
    version from another release or a corrupted payload all come back
    as ordinary values ([Ok None] / [Error _]), never an exception, so
    callers can always fall back to recomputing.

    The payload is opaque here: text stores (manifest, policies) and
    binary stores (isoms) both fit, because the header records the
    payload's exact byte length and MD5. *)

(** [save ~path ~magic ~version payload] writes the container
    atomically (temp file + rename), so a crash mid-write cannot leave
    a torn store behind.  [magic] must not contain spaces or
    newlines. *)
val save :
  path:string -> magic:string -> version:int -> string ->
  (unit, string) result

(** [load ~path ~magic ~version] returns the verified payload.
    [Ok None] when the file does not exist; [Error _] (naming [path]
    and the failing check) on bad magic, wrong version, length or
    checksum mismatch, or an unreadable file. *)
val load :
  path:string -> magic:string -> version:int ->
  (string option, string) result
