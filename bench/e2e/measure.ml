(* Clocks, bench spans, the sequential measurement window, and the
   analyses of recorded spans. *)

module Trace = Dyn_obs.Trace

let now () = Unix.gettimeofday ()

(* Named sums an op reports (bytes written, sites planted, ...). *)
module Acc = struct
  type t = (string, float) Hashtbl.t

  let create () : t = Hashtbl.create 16
  let get (t : t) k = Option.value (Hashtbl.find_opt t k) ~default:0.0
  let add (t : t) k v = Hashtbl.replace t k (get t k +. v)
  let add_list t l = List.iter (fun (k, v) -> add t k v) l
  let merge ~into (t : t) = Hashtbl.iter (fun k v -> add into k v) t

  (* [num / den], 0 when nothing was counted. *)
  let ratio t num den = if get t den = 0.0 then 0.0 else get t num /. get t den
end

(* A bench span around a call into one layer.  Spans are recorded only
   from this directory, under "bench."-prefixed names; [name] is the
   per-layer metric the span feeds.  One branch when tracing is off. *)
let span name f =
  if Trace.is_enabled () then Trace.with_span ("bench." ^ name) f else f ()

(* ------------------------------------------------------------------ *)
(* order statistics                                                    *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* Nearest-rank percentile of an ascending array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then 0.0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100.0 *. float n)) - 1)))

let median a =
  let x = sorted a and n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then x.(n / 2)
  else (x.((n / 2) - 1) +. x.(n / 2)) /. 2.0

(* Quartiles as Python's statistics.quantiles(data, n=4) computes them
   (the "exclusive" method), which is how run-to-run spread is judged. *)
let quartiles a =
  let x = sorted a in
  let ld = Array.length x in
  if ld < 2 then (median x, median x)
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = float ((i * m) - (j * 4)) in
      ((x.(j - 1) *. (4.0 -. delta)) +. (x.(j) *. delta)) /. 4.0
    in
    (q 1, q 3)

(* Ops per second of each whole pass over a cycle of items. *)
let pass_rates ~cycle (latencies : float array) =
  Array.init (Array.length latencies / cycle) (fun k ->
      float cycle /. Array.fold_left ( +. ) 0.0 (Array.sub latencies (k * cycle) cycle))

(* Interquartile distance as a share of the median. *)
let spread a =
  let lo, hi = quartiles a in
  let m = median a in
  if m = 0.0 then if hi = lo then 0.0 else infinity else (hi -. lo) /. Float.abs m

(* ------------------------------------------------------------------ *)
(* process facts                                                        *)
(* ------------------------------------------------------------------ *)

(* VmHWM of a process, in MB. *)
let peak_rss_mb pid =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun line ->
         Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float kb /. 1024.0))
  |> Option.value ~default:0.0

(* ------------------------------------------------------------------ *)
(* the sequential window                                               *)
(* ------------------------------------------------------------------ *)

type window = {
  latencies : float array;  (** seconds per op, in op order *)
  failures : string list;  (** one message per failed op *)
  busy_s : float;  (** the time ops_per_s divides by *)
}

(* Run [op 0 acc], [op 1 acc], ... until [seconds] have passed and at
   least [min_ops] ops ran; [op i] works on item [i mod cycle].  Each op
   reports into a fresh accumulator, merged afterwards into [all], and
   into [first] for the ops of the first pass or the first [min_ops],
   whichever is shorter: a prefix every run completes.

   For the end-to-end metrics the window ends on a whole number of
   passes over the items, so every item weighs the same in the
   percentiles whenever the clock runs out, and ops pay for collecting
   what they allocate, as in a long-running tool.  For the per-layer
   [breakdown], a full major collection precedes every op, outside the
   timed region, so no op's spans absorb its predecessor's garbage.
   [op] raising counts as a failed op. *)
let sequential ~breakdown ~cycle ~seconds ~min_ops ~first ~all (op : int -> Acc.t -> unit)
    : window =
  let t_end = now () +. seconds and prefix = min cycle min_ops in
  let lat = ref [] and failures = ref [] and busy = ref 0.0 in
  let rec go i =
    if i < min_ops || now () < t_end || ((not breakdown) && i mod cycle <> 0) then begin
      let acc = Acc.create () in
      if breakdown then Gc.full_major ();
      let t0 = now () in
      (match span "op" (fun () -> op i acc) with
      | () -> ()
      | exception e ->
          failures := Printf.sprintf "op %d: %s" i (Printexc.to_string e) :: !failures);
      let dt = now () -. t0 in
      lat := dt :: !lat;
      busy := !busy +. dt;
      Acc.add acc "ops" 1.0;
      Acc.merge ~into:all acc;
      if i < prefix then Acc.merge ~into:first acc;
      go (i + 1)
    end
  in
  go 0;
  { latencies = Array.of_list (List.rev !lat); failures = List.rev !failures; busy_s = !busy }

(* ------------------------------------------------------------------ *)
(* span analyses                                                        *)
(* ------------------------------------------------------------------ *)

type breakdown = {
  ops : int;
  op_ns : int;  (** summed bench.op durations *)
  layer_ns : (string * int) list;
      (** per bench span directly under bench.op, "bench." stripped *)
  coverage : float array;
      (** the share of each op its layer spans cover, in op order on
          each track *)
}

let strip_bench name = String.sub name 6 (String.length name - 6)

(* Span timestamps come from gettimeofday: a boundary between two
   adjacent spans can show a gap of one tick that the clock cannot
   resolve. *)
let clock_tick_ns = 1000

(* Attribute every bench span directly under a bench.op to that op (same
   track, inside its interval).  Inclusive durations: program-internal
   spans nested inside a bench span count toward its layer.  An op's
   coverage forgives one clock tick per span boundary. *)
let breakdown (events : Trace.event list) : breakdown =
  let is_bench (e : Trace.event) =
    e.Trace.ev_level = "span" && String.length e.Trace.ev_name > 6
    && String.sub e.Trace.ev_name 0 6 = "bench."
  in
  let evs =
    List.filter is_bench events
    |> List.sort (fun (a : Trace.event) b ->
           compare (a.ev_tid, a.ev_ts_ns, -a.ev_dur_ns, a.ev_name <> "bench.op")
             (b.ev_tid, b.ev_ts_ns, -b.ev_dur_ns, b.ev_name <> "bench.op"))
  in
  let layers = Hashtbl.create 16 in
  let ops = ref 0 and op_ns = ref 0 and coverage = ref [] in
  (* the open op: (tid, start, end, covered ns, child spans) *)
  let cur = ref None in
  let close () =
    match !cur with
    | Some (_, t0, t1, covered, n) ->
        let slack = (n + 1) * clock_tick_ns in
        coverage := Float.min 1.0 (float (covered + slack) /. float (max 1 (t1 - t0))) :: !coverage
    | None -> ()
  in
  List.iter
    (fun (e : Trace.event) ->
      let t0 = e.ev_ts_ns and t1 = e.ev_ts_ns + e.ev_dur_ns in
      if e.ev_name = "bench.op" then begin
        close ();
        incr ops;
        op_ns := !op_ns + e.ev_dur_ns;
        cur := Some (e.ev_tid, t0, t1, 0, 0)
      end
      else
        match !cur with
        | Some (tid, o0, o1, covered, n)
          when e.ev_parent = "bench.op" && tid = e.ev_tid && t0 >= o0 && t1 <= o1 ->
            let name = strip_bench e.ev_name in
            Hashtbl.replace layers name
              (e.ev_dur_ns + Option.value (Hashtbl.find_opt layers name) ~default:0);
            cur := Some (tid, o0, o1, covered + e.ev_dur_ns, n + 1)
        | _ -> ())
    evs;
  close ();
  {
    ops = !ops;
    op_ns = !op_ns;
    layer_ns = Hashtbl.fold (fun k v acc -> (k, v) :: acc) layers [] |> List.sort compare;
    coverage = Array.of_list (List.rev !coverage);
  }

(* The coverage the traced pass gates on: for each item of a cycle (op
   [i] ran item [i mod cycle]), the median coverage of its ops, and the
   lowest of those.  A single op can lose its share to the host
   preempting the process between two spans, which says nothing about
   the benchmark's spans; a gap every run of an item shows is what the
   gate is for.  Without a cycle, the lowest op's. *)
let gated_coverage ~cycle (coverage : float array) =
  if Array.length coverage = 0 then 0.0
  else if cycle = 0 then Array.fold_left Float.min 1.0 coverage
  else
    Array.init (min cycle (Array.length coverage)) (fun item ->
        median
          (Array.of_list
             (List.filteri (fun i _ -> i mod cycle = item) (Array.to_list coverage))))
    |> Array.fold_left Float.min 1.0

(* Self time and count per span name in a Chrome trace-event file (the
   format [Dyn_obs.Trace.write_out] produces; integer microseconds): a
   span's self time is its duration minus what its directly nested spans
   on the same track cover. *)
let self_times_us (chrome_json : string) : (string * (int * int)) list =
  let module J = Dyn_util.Jsonw in
  let evs =
    J.to_list (J.member "traceEvents" (J.of_string chrome_json))
    |> List.filter (fun e -> J.member "ph" e = J.String "X")
    |> List.map (fun e ->
           ( J.to_int (J.member "tid" e),
             J.to_int (J.member "ts" e),
             J.to_int (J.member "dur" e),
             J.to_str (J.member "name" e) ))
    |> List.sort (fun (t1, s1, d1, _) (t2, s2, d2, _) -> compare (t1, s1, -d1) (t2, s2, -d2))
  in
  let self = Hashtbl.create 16 in
  let bump name v n =
    let us, count = Option.value (Hashtbl.find_opt self name) ~default:(0, 0) in
    Hashtbl.replace self name (us + v, count + n)
  in
  (* stack of enclosing spans on the current track: (tid, end, name) *)
  let stack = ref [] in
  List.iter
    (fun (tid, ts, dur, name) ->
      (* an enclosing span must hold this one whole: rounding to whole
         microseconds can make adjacent spans overlap by a tick *)
      let rec unwind () =
        match !stack with
        | (t, e, _) :: rest when t <> tid || e < ts + dur ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with (_, _, parent) :: _ -> bump parent (-dur) 0 | [] -> ());
      bump name dur 1;
      stack := (tid, ts + dur, name) :: !stack)
    evs;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) self []
