(* Hierarchical span tracing and a leveled structured event log.

   Spans are recorded as *complete* events — begin timestamp plus
   duration — on the recording domain's track, which is exactly the
   Chrome trace-event "ph":"X" model: Perfetto reconstructs nesting
   from time containment per track, and we additionally record the
   lexical parent (a per-domain span stack) in the event so the NDJSON
   export carries the hierarchy explicitly.

   The clock is monotonic-by-construction: gettimeofday scaled to ns,
   clamped through an atomic high-water mark so a wall-clock step
   backwards can never produce a negative duration (the toolchain has
   no mtime/CLOCK_MONOTONIC binding; the clamp is the portable
   substitute and the error is bounded by the step size).

   Recording is off by default and costs one branch when off.  When on,
   each event takes a global mutex for the ring append — tracing is for
   understanding per-job structure, not for counting packets; the
   always-on counting lives in Registry.  The ring is bounded: once
   [capacity] events are held the oldest are dropped and counted in
   [dropped], so a long-lived daemon cannot leak its heap into a trace
   nobody scrapes.

   Caveat: the parent stack is per *domain*.  Systhreads sharing a
   domain (rvserved's connection readers on domain 0) can interleave
   pushes, so spans opened on reader threads may record a sibling's
   parent; worker domains run one job at a time and nest exactly. *)

(* --- monotonic clock ------------------------------------------------------- *)

let last_ns = Atomic.make 0

let now_ns () =
  let raw = int_of_float (Unix.gettimeofday () *. 1e9) in
  let rec clamp () =
    let prev = Atomic.get last_ns in
    if raw <= prev then prev
    else if Atomic.compare_and_set last_ns prev raw then raw
    else clamp ()
  in
  clamp ()

(* --- events ---------------------------------------------------------------- *)

type level = Debug | Info | Warn | Error

let level_name = function
  | Debug -> "debug"
  | Info -> "info"
  | Warn -> "warn"
  | Error -> "error"

type event = {
  ev_name : string;
  ev_tid : int; (* domain id of the recording domain *)
  ev_ts_ns : int; (* begin time *)
  ev_dur_ns : int; (* 0 for instants *)
  ev_parent : string; (* "" = root *)
  ev_level : string; (* "span" for spans, else the log level *)
  ev_args : (string * string) list;
}

let enabled = Atomic.make false
let set_enabled b = Atomic.set enabled b
let is_enabled () = Atomic.get enabled

let mu = Mutex.create ()
let ring : event Queue.t = Queue.create ()
let capacity = ref 65_536
let dropped_count = ref 0

let set_capacity n = if n > 0 then capacity := n
let dropped () = !dropped_count

let record ev =
  Mutex.lock mu;
  Queue.push ev ring;
  while Queue.length ring > !capacity do
    ignore (Queue.pop ring);
    incr dropped_count
  done;
  Mutex.unlock mu

let clear () =
  Mutex.lock mu;
  Queue.clear ring;
  dropped_count := 0;
  Mutex.unlock mu

let events () : event list =
  Mutex.lock mu;
  let l = List.of_seq (Queue.to_seq ring) in
  Mutex.unlock mu;
  l

(* --- the per-domain span stack --------------------------------------------- *)

let stack_key : string list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let parent () =
  match !(Domain.DLS.get stack_key) with [] -> "" | p :: _ -> p

let push name =
  let s = Domain.DLS.get stack_key in
  s := name :: !s

let pop () =
  let s = Domain.DLS.get stack_key in
  match !s with [] -> () | _ :: t -> s := t

(* --- span recording -------------------------------------------------------- *)

let complete ?(args = []) ?parent:par ?tid ~t0_ns ~t1_ns name =
  if Atomic.get enabled then
    record
      {
        ev_name = name;
        ev_tid = (match tid with Some t -> t | None -> (Domain.self () :> int));
        ev_ts_ns = t0_ns;
        ev_dur_ns = (if t1_ns > t0_ns then t1_ns - t0_ns else 0);
        ev_parent = (match par with Some p -> p | None -> parent ());
        ev_level = "span";
        ev_args = args;
      }

let with_span ?(args = []) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let par = parent () in
    push name;
    let t0 = now_ns () in
    let finish () =
      let t1 = now_ns () in
      pop ();
      complete ~args ~parent:par ~t0_ns:t0 ~t1_ns:t1 name
    in
    match f () with
    | v ->
        finish ();
        v
    | exception exn ->
        finish ();
        raise exn
  end

let log ?(level = Info) ?(fields = []) msg =
  if Atomic.get enabled then
    record
      {
        ev_name = msg;
        ev_tid = (Domain.self () :> int);
        ev_ts_ns = now_ns ();
        ev_dur_ns = 0;
        ev_parent = parent ();
        ev_level = level_name level;
        ev_args = fields;
      }

(* --- export ---------------------------------------------------------------- *)

let add_kv buf k v =
  Dyn_util.Jsonw.escape_to buf k;
  Buffer.add_char buf ':';
  v buf

let str s buf = Dyn_util.Jsonw.escape_to buf s
let int i buf = Buffer.add_string buf (string_of_int i)

let add_args buf args =
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      add_kv buf k (str v))
    args;
  Buffer.add_char buf '}'

(* Chrome trace-event JSON (the JSON-object format Perfetto and
   chrome://tracing load).  Timestamps are integer microseconds so the
   file stays parseable by integer-only readers (Jsonw); sub-us spans
   round up to 1 us rather than vanishing. *)
let chrome_json () : string =
  let evs = events () in
  let buf = Buffer.create (256 + (List.length evs * 128)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i ev ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_char buf '{';
      add_kv buf "name" (str ev.ev_name);
      Buffer.add_char buf ',';
      if ev.ev_level = "span" then begin
        add_kv buf "ph" (str "X");
        Buffer.add_char buf ',';
        add_kv buf "ts" (int (ev.ev_ts_ns / 1000));
        Buffer.add_char buf ',';
        add_kv buf "dur" (int (max 1 ((ev.ev_dur_ns + 999) / 1000)))
      end
      else begin
        add_kv buf "ph" (str "i");
        Buffer.add_char buf ',';
        add_kv buf "ts" (int (ev.ev_ts_ns / 1000));
        Buffer.add_char buf ',';
        add_kv buf "s" (str "t")
      end;
      Buffer.add_char buf ',';
      add_kv buf "pid" (int 0);
      Buffer.add_char buf ',';
      add_kv buf "tid" (int ev.ev_tid);
      Buffer.add_char buf ',';
      let args =
        (if ev.ev_parent = "" then [] else [ ("parent", ev.ev_parent) ])
        @ (if ev.ev_level = "span" then [] else [ ("level", ev.ev_level) ])
        @ ev.ev_args
      in
      add_kv buf "args" (fun b -> add_args b args);
      Buffer.add_char buf '}')
    evs;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ns\"}";
  Buffer.contents buf

(* NDJSON structured event log: one object per line, fixed key order
   (ts_ns, level, name, dur_ns, tid, parent, then event fields). *)
let ndjson () : string =
  let evs = events () in
  let buf = Buffer.create (List.length evs * 128) in
  List.iter
    (fun ev ->
      Buffer.add_char buf '{';
      add_kv buf "ts_ns" (int ev.ev_ts_ns);
      Buffer.add_char buf ',';
      add_kv buf "level" (str ev.ev_level);
      Buffer.add_char buf ',';
      add_kv buf "name" (str ev.ev_name);
      Buffer.add_char buf ',';
      add_kv buf "dur_ns" (int ev.ev_dur_ns);
      Buffer.add_char buf ',';
      add_kv buf "tid" (int ev.ev_tid);
      Buffer.add_char buf ',';
      add_kv buf "parent" (str ev.ev_parent);
      List.iter
        (fun (k, v) ->
          Buffer.add_char buf ',';
          add_kv buf k (str v))
        ev.ev_args;
      Buffer.add_string buf "}\n")
    evs;
  Buffer.contents buf

(* The --stats view: total time and call count per span name, folded
   from the ring in first-start order, then every nonzero registry row.
   It reads the same events as [write_out], so the two cannot disagree. *)
let pp_stats fmt () =
  let totals = Hashtbl.create 16 and order = ref [] in
  List.iter
    (fun ev ->
      if ev.ev_level = "span" then
        match Hashtbl.find_opt totals ev.ev_name with
        | Some (ns, n) -> Hashtbl.replace totals ev.ev_name (ns + ev.ev_dur_ns, n + 1)
        | None ->
            order := ev.ev_name :: !order;
            Hashtbl.replace totals ev.ev_name (ev.ev_dur_ns, 1))
    (List.stable_sort (fun a b -> compare a.ev_ts_ns b.ev_ts_ns) (events ()));
  Format.fprintf fmt "== toolkit stats ==@\n";
  List.iter
    (fun name ->
      let ns, n = Hashtbl.find totals name in
      Format.fprintf fmt "  %-24s %10.3f ms  (%d call%s)@\n" name
        (float_of_int ns /. 1e6) n
        (if n = 1 then "" else "s"))
    (List.rev !order);
  if dropped () > 0 then
    Format.fprintf fmt "  (%d events dropped from the trace ring)@\n" (dropped ());
  List.iter
    (fun { Registry.r_name; r_value } ->
      match r_value with
      | Registry.Counter_v n | Registry.Gauge_v n ->
          if n <> 0 then Format.fprintf fmt "  %-24s %10d@\n" r_name n
      | Registry.Histogram_v hv ->
          if hv.Registry.hv_count > 0 then
            Format.fprintf fmt "  %-24s %10.3f ms  (%d observed)@\n" r_name
              (float_of_int hv.Registry.hv_sum_ns /. 1e6)
              hv.Registry.hv_count)
    (Registry.snapshot ())

let write_file path s =
  let oc = open_out_bin path in
  output_string oc s;
  close_out oc

(* A path ending in .ndjson gets the event log; anything else the
   Chrome trace-event JSON. *)
let write_out path =
  if Filename.check_suffix path ".ndjson" then write_file path (ndjson ())
  else write_file path (chrome_json ())
