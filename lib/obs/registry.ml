(* The domain-safe metrics registry: counters, gauges and log2-bucketed
   latency histograms for the daemon and the toolkits.

   Hot-path design: counters and histograms are sharded per domain — a
   metric owns [n_shards] atomic cells and an increment touches only
   the cell indexed by [Domain.self () mod n_shards], so concurrent
   domains almost never contend on a cache line, and even when two
   domains hash to the same shard the update is still a fetch-and-add,
   never a lost write.  Shards are merged at scrape time; a scrape can
   race increments, but each cell read is atomic so totals are only
   ever "a valid recent value", never torn.

   Gauges are a single atomic cell (set/add): they track level-style
   state (queue depth, resident bytes) whose writes are rare relative
   to counter increments, and whose value must not be a per-shard sum
   of independent set()s.

   Registration is lock-free to read: the name -> metric map is an
   immutable [Map] behind an [Atomic]; creation takes a mutex, re-checks
   and publishes a new snapshot.  Metric handles should be created once
   at module initialization and used forever; looking up by name on a
   hot path costs one map find.

   [set_enabled false] turns counter/histogram updates into a single
   branch — the master switch the overhead bench toggles.  Gauges stay
   live so paired add/sub bookkeeping (queue depth) cannot go lopsided
   across a toggle.

   The registry itself depends on nothing but unix; the library's
   tracer uses Dyn_util's JSON escaper. *)

let n_shards = 16
let shard_mask = n_shards - 1
let shard_id () = (Domain.self () :> int) land shard_mask

let enabled = Atomic.make true
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

(* --- metric representations ---------------------------------------------- *)

type counter = { c_name : string; c_cells : int Atomic.t array }
type gauge = { g_name : string; g_cell : int Atomic.t }

(* Bucket [i] counts observations v (in ns) with 2^i <= v < 2^(i+1);
   bucket 0 also absorbs v <= 1, and the top bucket absorbs everything
   >= 2^31 ns (~2.1 s) — the "> 1 s" overflow. *)
let n_buckets = 32

type histogram = {
  h_name : string;
  h_buckets : int Atomic.t array array; (* shard -> per-bucket counts *)
  h_sums : int Atomic.t array; (* shard -> sum of observed ns *)
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

let metric_name = function
  | Counter c -> c.c_name
  | Gauge g -> g.g_name
  | Histogram h -> h.h_name

module SM = Map.Make (String)

let metrics : metric SM.t Atomic.t = Atomic.make SM.empty
let reg_mu = Mutex.create ()

let find_or_create name (make : unit -> metric) : metric =
  match SM.find_opt name (Atomic.get metrics) with
  | Some m -> m
  | None ->
      Mutex.lock reg_mu;
      let m =
        match SM.find_opt name (Atomic.get metrics) with
        | Some m -> m
        | None ->
            let m = make () in
            Atomic.set metrics (SM.add name m (Atomic.get metrics));
            m
      in
      Mutex.unlock reg_mu;
      m

let kind_clash name want =
  invalid_arg
    (Printf.sprintf "Dyn_obs.Registry: %s already registered, not as a %s" name
       want)

let counter name : counter =
  match
    find_or_create name (fun () ->
        Counter
          { c_name = name; c_cells = Array.init n_shards (fun _ -> Atomic.make 0) })
  with
  | Counter c -> c
  | _ -> kind_clash name "counter"

let gauge name : gauge =
  match
    find_or_create name (fun () -> Gauge { g_name = name; g_cell = Atomic.make 0 })
  with
  | Gauge g -> g
  | _ -> kind_clash name "gauge"

let histogram name : histogram =
  match
    find_or_create name (fun () ->
        Histogram
          {
            h_name = name;
            h_buckets =
              Array.init n_shards (fun _ ->
                  Array.init n_buckets (fun _ -> Atomic.make 0));
            h_sums = Array.init n_shards (fun _ -> Atomic.make 0);
          })
  with
  | Histogram h -> h
  | _ -> kind_clash name "histogram"

(* --- hot-path updates ----------------------------------------------------- *)

let incr ?(by = 1) (c : counter) =
  if Atomic.get enabled then
    ignore (Atomic.fetch_and_add c.c_cells.(shard_id ()) by)

let set (g : gauge) v = Atomic.set g.g_cell v
let add (g : gauge) d = ignore (Atomic.fetch_and_add g.g_cell d)

let bucket_of_ns ns =
  if ns <= 1 then 0
  else begin
    (* floor(log2 ns), clamped to the overflow bucket *)
    let i = ref 0 and v = ref ns in
    while !v > 1 do
      i := !i + 1;
      v := !v lsr 1
    done;
    if !i >= n_buckets then n_buckets - 1 else !i
  end

let observe (h : histogram) ns =
  if Atomic.get enabled then begin
    let s = shard_id () in
    let ns = if ns < 0 then 0 else ns in
    ignore (Atomic.fetch_and_add h.h_buckets.(s).(bucket_of_ns ns) 1);
    ignore (Atomic.fetch_and_add h.h_sums.(s) ns)
  end

(* --- scrape (merge the shards) -------------------------------------------- *)

type hview = { hv_count : int; hv_sum_ns : int; hv_buckets : int array }

type value = Counter_v of int | Gauge_v of int | Histogram_v of hview

type row = { r_name : string; r_value : value }

let counter_value (c : counter) =
  Array.fold_left (fun acc cell -> acc + Atomic.get cell) 0 c.c_cells

let gauge_value (g : gauge) = Atomic.get g.g_cell

let histogram_view (h : histogram) : hview =
  let buckets = Array.make n_buckets 0 in
  Array.iter
    (Array.iteri (fun i cell -> buckets.(i) <- buckets.(i) + Atomic.get cell))
    h.h_buckets;
  {
    hv_count = Array.fold_left ( + ) 0 buckets;
    hv_sum_ns = Array.fold_left (fun acc c -> acc + Atomic.get c) 0 h.h_sums;
    hv_buckets = buckets;
  }

let value_of = function
  | Counter c -> Counter_v (counter_value c)
  | Gauge g -> Gauge_v (gauge_value g)
  | Histogram h -> Histogram_v (histogram_view h)

(* Rows sorted by name (Map.bindings order): the deterministic-key-order
   contract of the metrics wire action rests on this. *)
let snapshot () : row list =
  SM.bindings (Atomic.get metrics)
  |> List.map (fun (name, m) -> { r_name = name; r_value = value_of m })

let find name : row option =
  Option.map
    (fun m -> { r_name = metric_name m; r_value = value_of m })
    (SM.find_opt name (Atomic.get metrics))

(* Upper-bound estimate of the q-quantile (0 < q <= 1) from the bucket
   boundaries: the exclusive upper edge of the bucket holding the
   q*count-th observation.  Exact only up to the 2x bucket width. *)
let approx_quantile_ns (hv : hview) (q : float) : int =
  if hv.hv_count = 0 then 0
  else begin
    let rank =
      let r = int_of_float (ceil (q *. float_of_int hv.hv_count)) in
      if r < 1 then 1 else if r > hv.hv_count then hv.hv_count else r
    in
    let acc = ref 0 and b = ref (n_buckets - 1) in
    (try
       Array.iteri
         (fun i n ->
           acc := !acc + n;
           if !acc >= rank then begin
             b := i;
             raise Exit
           end)
         hv.hv_buckets
     with Exit -> ());
    if !b >= n_buckets - 1 then max_int else (1 lsl (!b + 1)) - 1
  end
