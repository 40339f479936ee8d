(** Fixed-size Domain worker pool: the compute shards of rvserved.
    Connection readers [submit] closures; [domains] workers drain them.
    Escaped exceptions are swallowed (jobs should report their own
    errors); [run_batch] is the blocking fan-out/fan-in helper used by
    tests and the bench harness. *)

type t

(** Raised by {!submit} after {!shutdown}. *)
exception Stopped

(** Spawn [domains] workers (clamped to at least 1). *)
val create : domains:int -> t

val size : t -> int

val submit : t -> (unit -> unit) -> unit

(** Run all thunks on the pool, block until done; results in input
    order, exceptions captured per-thunk. *)
val run_batch : t -> (unit -> 'a) list -> ('a, exn) result list

(** Stop accepting work, drain the queue, join the workers. *)
val shutdown : t -> unit
