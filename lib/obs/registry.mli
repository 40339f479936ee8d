(** Domain-safe metrics registry: counters, gauges, log2-bucketed
    latency histograms.  Counter/histogram updates are sharded per
    domain (uncontended fetch-and-add on a per-shard atomic cell) and
    merged at scrape time; gauges are one atomic cell.  Registration is
    lock-free to read; create handles once, use them forever.
    {!snapshot} returns rows sorted by name — the deterministic key
    order the metrics wire action depends on. *)

type counter
type gauge
type histogram

(** Master switch for counter/histogram updates (one branch when off).
    Gauges stay live so paired add/sub bookkeeping survives a toggle.
    Defaults to enabled. *)
val set_enabled : bool -> unit

val is_enabled : unit -> bool

(** Find-or-create by name.
    @raise Invalid_argument if [name] exists with a different kind. *)
val counter : string -> counter

val gauge : string -> gauge
val histogram : string -> histogram

val incr : ?by:int -> counter -> unit
val set : gauge -> int -> unit
val add : gauge -> int -> unit

(** Record a latency observation in nanoseconds (clamped at 0). *)
val observe : histogram -> int -> unit

(** Buckets: index [i] covers [2^i, 2^(i+1)) ns, bucket 0 absorbs
    [v <= 1], the top bucket absorbs [>= 2^31] ns (> ~2.1 s). *)
val n_buckets : int

val bucket_of_ns : int -> int

type hview = { hv_count : int; hv_sum_ns : int; hv_buckets : int array }
type value = Counter_v of int | Gauge_v of int | Histogram_v of hview
type row = { r_name : string; r_value : value }

(** Merge all shards; rows sorted by name. *)
val snapshot : unit -> row list

val find : string -> row option

(** Bucket-resolution upper bound of the q-quantile (0 < q <= 1);
    [max_int] when it lands in the overflow bucket, 0 on empty. *)
val approx_quantile_ns : hview -> float -> int

val counter_value : counter -> int
val gauge_value : gauge -> int
val histogram_view : histogram -> hview
