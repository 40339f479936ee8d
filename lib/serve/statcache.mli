(** Path → content-hash memo keyed by stat(2) fingerprint (dev, inode,
    size, mtime, ctime) — spares warm requests the read+SHA-256 of an
    unchanged mutatee, with git-index-style staleness semantics.
    Thread-safe.  Counts into the [serve.stat.hits] and
    [serve.stat.misses] registry counters. *)

type t

val create : unit -> t

(** SHA-256 hex of the file's bytes, memoized while its fingerprint is
    unchanged.  Raises [Unix.Unix_error] if the path cannot be
    stat'ed. *)
val hash : t -> string -> string

(** Drop all memoized hashes (e.g. on cache flush). *)
val clear : t -> unit
