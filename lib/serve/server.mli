(** rvserved's socket front end: one reader thread per connection,
    control actions answered inline, job actions sharded across the
    domain {!Pool} with responses streamed back (out of order; clients
    correlate by id) under a per-connection write lock.  A "shutdown"
    request — or {!stop} from another thread — closes the listener,
    drains in-flight jobs and returns from {!serve}. *)

type config = {
  sc_socket : string;  (** Unix-domain socket path *)
  sc_domains : int;  (** pool workers *)
  sc_verbose : bool;  (** log to stderr *)
  sc_trace_out : string option;
      (** enable span tracing and write the capture here on shutdown:
          Chrome trace-event JSON, or the NDJSON event log if the path
          ends in [.ndjson] *)
}

type t

(** Longest request line, in bytes, that a connection may send; a
    longer one is answered with one [request-too-large] error and
    skipped. *)
val max_request_bytes : int

(** Bind and listen (unlinking a stale socket file); spawn the pool.
    [cache] defaults to a fresh in-memory cache. *)
val create : ?cache:Cache.t -> config -> t

(** Run the accept loop until shut down; then drain the pool and
    unlink the socket. *)
val serve : t -> unit

(** Close the listener, causing {!serve} to wind down.  Idempotent. *)
val stop : t -> unit
