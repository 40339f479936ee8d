(* The rvserved daemon core: a Unix-domain-socket front end over the
   artifact cache and the domain pool.

   One lightweight thread per connection reads NDJSON requests.
   Control actions (ping/metrics/flush/shutdown) are answered inline on
   the reader thread — they must not queue behind a long profile job.
   Job actions are submitted to the pool; each worker domain writes its
   response through the connection's write mutex, so responses stream
   back as they finish, interleaved but never torn.  Clients correlate
   by request id.

   Threads (not domains) own the sockets because connection reading is
   I/O-bound — OCaml 5 systhreads share one domain and release the
   runtime lock while blocked on a read, while the pool's domains
   do the CPU work in parallel.

   Shutdown: the "shutdown" action (or [stop]) closes the listening
   socket, which pops the accept loop out of [Unix.accept] with EBADF;
   the pool is then drained and joined, and the socket path unlinked.
   In-flight jobs finish and their responses are attempted — writes to
   connections the client already closed die quietly (SIGPIPE is
   ignored for the process). *)

module J = Dyn_util.Jsonw
module Obs = Dyn_obs.Registry
module Trace = Dyn_obs.Trace

let g_uptime = Obs.gauge "serve.uptime_us"
let g_domains = Obs.gauge "serve.pool.domains"

type config = {
  sc_socket : string; (* socket path *)
  sc_domains : int;
  sc_verbose : bool;
  sc_trace_out : string option;
      (* write the span trace here on shutdown: Chrome trace-event JSON,
         or the NDJSON event log if the path ends in .ndjson *)
}

type t = {
  cfg : config;
  cache : Cache.t;
  stat : Statcache.t;
  pool : Pool.t;
  listen_fd : Unix.file_descr;
  mutable stopping : bool;
  mu : Mutex.t; (* guards stopping *)
  started : float;
}

let log t fmt =
  if t.cfg.sc_verbose then
    Printf.ksprintf (fun s -> Printf.eprintf "rvserved: %s\n%!" s) fmt
  else Printf.ksprintf ignore fmt

(* The metrics wire action: every registry row, names sorted (the
   registry snapshot is Map-ordered), fixed key order per row — a
   deterministic scrape clients can diff.  Level-style server facts
   (uptime, pool size) are refreshed into gauges at scrape time. *)
let metrics_payload t =
  Obs.set g_uptime
    (int_of_float ((Unix.gettimeofday () -. t.started) *. 1e6));
  Obs.set g_domains (Pool.size t.pool);
  let i n = J.Int (Int64.of_int n) in
  let row (r : Obs.row) =
    match r.Obs.r_value with
    | Obs.Counter_v v ->
        J.Obj
          [
            ("name", J.String r.Obs.r_name);
            ("type", J.String "counter");
            ("value", i v);
          ]
    | Obs.Gauge_v v ->
        J.Obj
          [
            ("name", J.String r.Obs.r_name);
            ("type", J.String "gauge");
            ("value", i v);
          ]
    | Obs.Histogram_v hv ->
        J.Obj
          [
            ("name", J.String r.Obs.r_name);
            ("type", J.String "histogram");
            ("count", i hv.Obs.hv_count);
            ("sum_ns", i hv.Obs.hv_sum_ns);
            ("buckets", J.List (Array.to_list (Array.map i hv.Obs.hv_buckets)));
          ]
  in
  J.to_string
    (J.Obj [ ("metrics", J.List (List.map row (Obs.snapshot ()))) ])

let stop t =
  Mutex.lock t.mu;
  let first = not t.stopping in
  t.stopping <- true;
  Mutex.unlock t.mu;
  (* shutdown(2), not close(2): closing an fd another thread is blocked
     in accept(2) on does not wake it (and the number could be reused);
     shutting the socket down pops accept with EINVAL on every thread.
     serve closes the fd after the loop exits. *)
  if first then
    try Unix.shutdown t.listen_fd Unix.SHUTDOWN_ALL
    with Unix.Unix_error _ -> ()

(* Longest request line a connection may send.  A longer line gets one
   request-too-large error and is skipped, so a client that never sends
   a newline cannot grow the reader's buffer without bound. *)
let max_request_bytes = 1 lsl 20

(* The next request line, without its newline, read into [buf]. *)
let read_request ic buf =
  Buffer.clear buf;
  let rec go over =
    match input_char ic with
    | '\n' -> if over then `Too_large else `Line (Buffer.contents buf)
    | c ->
        let over = over || Buffer.length buf >= max_request_bytes in
        if not over then Buffer.add_char buf c;
        go over
    | exception End_of_file ->
        if over then `Too_large
        else if Buffer.length buf > 0 then `Line (Buffer.contents buf)
        else `Eof
  in
  go false

(* Per-connection reader.  [wmu] serializes response lines; pool
   workers for this connection share it via closure. *)
let handle_conn t fd =
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let wmu = Mutex.create () in
  (* jobs still in flight for this connection; the reader must not
     close the fd under them *)
  let pending = ref 0 in
  let pcv = Condition.create () in
  let send resp =
    Mutex.lock wmu;
    (try
       (* the write span sits on the sender's track: a worker domain
          for job responses (nested under its job span), the reader
          thread for control responses *)
       Trace.with_span "write" (fun () ->
           output_string oc (Wire.encode_response resp);
           output_char oc '\n';
           flush oc)
     with Sys_error _ | Unix.Unix_error _ -> ());
    Mutex.unlock wmu
  in
  let job_done () =
    Mutex.lock wmu;
    decr pending;
    if !pending = 0 then Condition.broadcast pcv;
    Mutex.unlock wmu
  in
  let buf = Buffer.create 256 in
  let rec loop () =
    match read_request ic buf with
    | exception Sys_error _ | `Eof -> ()
    | `Too_large ->
        send
          (Wire.error_response ~id:(-1L) ~elapsed_us:0L
             (Printf.sprintf "request-too-large: over %d bytes" max_request_bytes));
        loop ()
    | `Line line when String.trim line = "" -> loop ()
    | `Line line -> (
        match Wire.decode_request line with
        | exception Wire.Wire_error msg ->
            send (Wire.error_response ~id:(-1L) ~elapsed_us:0L msg);
            loop ()
        | req -> (
            match req.Wire.rq_action with
            | Wire.Ping ->
                send
                  (Wire.ok_response ~id:req.Wire.rq_id ~hash:"" ~cached:false
                     ~elapsed_us:0L ~payload:"\"pong\"");
                loop ()
            | Wire.Metrics ->
                send
                  (Wire.ok_response ~id:req.Wire.rq_id ~hash:"" ~cached:false
                     ~elapsed_us:0L ~payload:(metrics_payload t));
                loop ()
            | Wire.Flush ->
                Cache.flush t.cache;
                Statcache.clear t.stat;
                log t "cache flushed (generation %d)" (Cache.generation t.cache);
                send
                  (Wire.ok_response ~id:req.Wire.rq_id ~hash:"" ~cached:false
                     ~elapsed_us:0L ~payload:"\"flushed\"");
                loop ()
            | Wire.Shutdown ->
                send
                  (Wire.ok_response ~id:req.Wire.rq_id ~hash:"" ~cached:false
                     ~elapsed_us:0L ~payload:"\"bye\"");
                log t "shutdown requested";
                stop t
                (* stop reading: fall through to cleanup *)
            | _ ->
                Mutex.lock wmu;
                incr pending;
                Mutex.unlock wmu;
                (try
                   Pool.submit t.pool (fun () ->
                       send (Jobs.exec ~stat:t.stat t.cache req);
                       job_done ())
                 with Pool.Stopped ->
                   send
                     (Wire.error_response ~id:req.Wire.rq_id ~elapsed_us:0L
                        "server shutting down");
                   job_done ());
                loop ()))
  in
  loop ();
  (* wait for this connection's jobs before closing its fd *)
  Mutex.lock wmu;
  while !pending > 0 do
    Condition.wait pcv wmu
  done;
  Mutex.unlock wmu;
  (try Unix.close fd with Unix.Unix_error _ -> ())

let create ?(cache = Cache.create ()) (cfg : config) : t =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if cfg.sc_trace_out <> None then begin
    (* a cold job records its library spans (elf.read .. patch.apply)
       under execute, about seven events a job on a mixed load: keep
       2^18 events, some 35k jobs, before the oldest drop *)
    Trace.set_capacity (1 lsl 18);
    Trace.set_enabled true
  end;
  if Sys.file_exists cfg.sc_socket then Unix.unlink cfg.sc_socket;
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX cfg.sc_socket);
  Unix.listen fd 64;
  {
    cfg;
    cache;
    stat = Statcache.create ();
    pool = Pool.create ~domains:cfg.sc_domains;
    listen_fd = fd;
    stopping = false;
    mu = Mutex.create ();
    started = Unix.gettimeofday ();
  }

(* Accept loop; returns after {!stop} (local or via a shutdown
   request).  Connection threads are not joined — each drains its own
   in-flight jobs before closing, and the pool join below barriers the
   compute side. *)
let serve (t : t) : unit =
  log t "listening on %s (%d domains)" t.cfg.sc_socket (Pool.size t.pool);
  let rec accept_loop () =
    match Unix.accept t.listen_fd with
    | fd, _ ->
        ignore (Thread.create (fun () -> handle_conn t fd) ());
        accept_loop ()
    | exception Unix.Unix_error ((Unix.EBADF | Unix.EINVAL), _, _) -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
  in
  accept_loop ();
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  Pool.shutdown t.pool;
  (try Unix.unlink t.cfg.sc_socket with Unix.Unix_error _ | Sys_error _ -> ());
  (match t.cfg.sc_trace_out with
  | None -> ()
  | Some path -> (
      try
        Trace.write_out path;
        log t "trace written to %s (%d events, %d dropped)" path
          (List.length (Trace.events ()))
          (Trace.dropped ())
      with Sys_error msg -> Printf.eprintf "rvserved: trace-out: %s\n%!" msg));
  log t "stopped"
