(** rvserved's content-addressed artifact cache.

    Artifacts (parsed binaries, rendered job payloads) are keyed by
    [kind ^ ":" ^ sha256(ELF bytes) ^ ":" ^ spec-key] — content, not
    path — so identical binaries submitted under different names share
    one computation.  The memory layer is LRU-bounded by entry count
    and approximate bytes; payloads optionally persist to a disk
    directory versioned by {!schema_version}.  [flush] bumps a
    generation so in-flight results of the old generation cannot
    re-enter.  Concurrent requests for the same key run the computation
    once (singleflight). *)

(** Version of persisted payloads, bumped whenever a toolkit change
    alters a payload's format or content; a disk directory written under
    a different version is wiped on open. *)
val schema_version : int

type value =
  | Bin of Core.binary  (** shared parsed ELF; memory-only *)
  | Payload of string  (** rendered JSON wire result; disk-persistable *)

type t

(** [create ()] with defaults: 256 entries, 64 MiB, no disk layer.
    Budgets [<= 0] disable the respective bound. *)
val create : ?disk_dir:string -> ?max_entries:int -> ?max_bytes:int -> unit -> t

(** [(value, cached)] — [cached] is true for memory and disk hits.  At
    most one caller computes per key; racers block until it finishes.
    Exceptions from the computation propagate and leave no entry. *)
val get_or_compute : t -> key:string -> (unit -> value) -> value * bool

(** Drop everything (memory + disk), bump the generation and the
    [serve.cache.flushes] counter. *)
val flush : t -> unit

val generation : t -> int

(** Ready entries currently in the memory layer. *)
val mem_entries : t -> int

(** Ready keys, most recently used first (for tests and debugging). *)
val mem_keys : t -> string list

