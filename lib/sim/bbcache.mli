(** The superblock execution engine (rvsim's code cache): translates
    straight-line instruction runs into arrays of pre-bound micro-op
    closures, caches them per region keyed by halfword offset, chains
    direct-jump successors tail-to-head, and is invalidated wholesale by
    {!Machine.flush_icache}.  Registered as {!Machine.run}'s default
    engine at module initialization.

    Observability is fused into the translations rather than handled by
    a degraded per-instruction mode: trace hooks are pre-bound into the
    body micro-ops, active HPM selectors become a precomputed per-block
    counter delta, and the sampling timer is batched at block
    boundaries (dispatch steps precisely across a deadline, so firing
    points stay exact).  Blocks are keyed on the observability
    configuration they were compiled under and are retranslated in
    place when it changes, so both engines produce identical
    architectural state, cycles, instret, HPM counts, trace-hook calls
    and timer firing points. *)

(** Run until a stop event or [max_steps] on the block engine. *)
val run : ?max_steps:int -> Machine.t -> Machine.stop

type stats = {
  mutable st_translated : int;  (** blocks translated *)
  mutable st_blocks : int;  (** block executions (fast path) *)
  mutable st_chain_hits : int;  (** dispatches resolved through a chain *)
  mutable st_retrans : int;
      (** in-place retranslations after a trace/HPM configuration change *)
  mutable st_timer_steps : int;
      (** precise steps taken because a timer deadline could fall inside
          a block *)
  mutable st_singles : int;  (** precise steps for budget/uncached pcs *)
  mutable st_evicted : int;
      (** blocks dropped by the [Machine.bb_cap] residency bound *)
}

(** Process-wide counters since start (or the last {!reset_stats}). *)
val stats : stats

val reset_stats : unit -> unit

(** {!Machine.flush_icache} invocations since start/reset. *)
val flushes : unit -> int

val pp_stats : Format.formatter -> unit -> unit
