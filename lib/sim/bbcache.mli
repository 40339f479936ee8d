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

(** Run until a stop event or [max_steps] on the block engine.  Before
    it returns or raises, the run's engine counts move from the
    machine's [bb_*] fields to the [sim.bb.*] registry counters
    ([translated], [blocks], [chain_hits], [retranslated],
    [timer_steps], [singles], [evicted]). *)
val run : ?max_steps:int -> Machine.t -> Machine.stop
