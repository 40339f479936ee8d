(* served-mix: a child rvserved driven over its wire protocol by a
   closed loop on two connections from this one process (no extra
   threads: one select loop).  Each connection sends its next job only
   after the previous response arrived.

   Jobs are drawn from a seeded stream: the action by a fixed mix, the
   file by Zipf popularity over the corpus.  The daemon's cache holds 64
   entries, fewer than the corpus has (file, action) keys, so misses,
   inserts and evictions continue for the whole run next to the hits. *)

module W = Serve_api.Wire
module J = Dyn_util.Jsonw
module Prng = Check_api.Prng
module Acc = Measure.Acc

let cache_entries = 64

(* The counters rewrite and verify jobs plant. *)
let spec = Patch_api.Rewriter.counter_spec ~entries:[ "main" ] ()

(* Action mix, in percent.  No measured rvserved traffic exists to take
   it from: this mix, like the file popularity below, is an assumption
   about a build farm's lint-and-instrument traffic, not a measurement. *)
let mix =
  let trace =
    { W.ts_blocks = true; ts_calls = false; ts_returns = false; ts_mem = false;
      ts_funcs = [ "main" ] }
  in
  [
    (30, W.Parse);
    (25, W.Lint);
    (20, W.Rewrite spec);
    (10, W.Verify spec);
    (10, W.Trace trace);
    (5, W.Profile { W.ps_period = 10_000L });
  ]

let kinds = List.map (fun (_, a) -> W.action_name a) mix

(* Zipf exponent of file popularity: 0.99, the default of the YCSB
   key-value benchmarks, taken as is rather than fitted to any traffic. *)
let zipf_s = 0.99

(* ------------------------------------------------------------------ *)
(* corpus                                                              *)
(* ------------------------------------------------------------------ *)

(* Builtins, matmul variants and seeded synthetic programs, written as
   ELF files under [dir].  Popularity ranks interleave them by size, so
   that every seed puts small and large files at every rank. *)
let write_corpus ~smoke ~seed ~dir =
  let builtins =
    [
      ("fib", Minicc.Programs.fib);
      ("calls", Minicc.Programs.calls);
      ("switch", Minicc.Programs.switch_demo);
      ("mixed", Minicc.Programs.mixed);
    ]
  in
  let matmuls =
    List.map
      (fun n -> (Printf.sprintf "matmul%d" n, Minicc.Programs.matmul ~n ~reps:1))
      (if smoke then [ 4 ] else [ 4; 5; 6; 7; 8; 9; 10; 12 ])
  in
  let synthetic =
    List.mapi
      (fun i n -> (Printf.sprintf "synth%02d" i, Corpus.program ~seed ~index:i ~n_funcs:n))
      (Corpus.size_grid ~lo:8 ~hi:48 ~count:(if smoke then 2 else 28))
  in
  let files =
    List.map
      (fun (name, src) ->
        let path = Filename.concat dir (name ^ ".elf") in
        let img = Corpus.compile src in
        Elfkit.Write.to_file path img;
        (Bytes.length (Elfkit.Write.to_bytes img), path))
      (builtins @ matmuls @ synthetic)
    |> List.sort compare |> Array.of_list
  in
  Array.of_list (List.map (fun i -> snd files.(i)) (Corpus.bit_reversal (Array.length files)))

(* The [i]th job of the seeded stream over [files] (popularity order),
   drawn apart from the synthetic programs' streams. *)
let job ~seed ~files ~cdf i : W.request =
  let g = Prng.of_seed_index ~seed ~index:(2_000_000 + i) in
  let pick = Prng.int g 100 in
  let rec action acc = function
    | [ (_, a) ] -> a
    | (w, a) :: rest -> if pick < acc + w then a else action (acc + w) rest
    | [] -> assert false
  in
  let u = float (Prng.int g 1_000_000) /. 1e6 in
  let rank =
    let rec find r = if r >= Array.length cdf - 1 || u < cdf.(r) then r else find (r + 1) in
    find 0
  in
  { W.rq_id = Int64.of_int i; rq_path = files.(rank); rq_action = action 0 mix }

let zipf_cdf n =
  let w = Array.init n (fun r -> 1.0 /. (float (r + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

(* ------------------------------------------------------------------ *)
(* daemon and connections                                              *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

type daemon = { pid : int; socket : string }

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX socket) with
  | () -> Some { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
  | exception Unix.Unix_error _ ->
      Unix.close fd;
      None

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let send c (r : W.request) =
  output_string c.oc (W.encode_request r);
  output_char c.oc '\n';
  flush c.oc

let recv c = W.decode_response (input_line c.ic)

let roundtrip c r =
  send c r;
  recv c

(* Spawn rvserved and wait until its socket accepts. *)
let spawn ~exe ~socket ?trace_out () =
  let args =
    [ exe; "--socket"; socket; "--domains"; "2" ]
    @ [ "--cache-entries"; string_of_int cache_entries ]
    @ match trace_out with Some f -> [ "--trace-out"; f ] | None -> []
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process exe (Array.of_list args) devnull devnull Unix.stderr in
  Unix.close devnull;
  let deadline = Measure.now () +. 30.0 in
  let rec wait () =
    match connect socket with
    | Some c -> c
    | None ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> failwith "rvserved exited before accepting connections");
        if Measure.now () > deadline then (
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          failwith "rvserved did not accept connections within 30 s");
        Unix.sleepf 0.002;
        wait ()
  in
  let c = wait () in
  ({ pid; socket }, c)

(* Ask the daemon to stop and reap it; kill it if it lingers. *)
let shutdown (d : daemon) c =
  (try ignore (roundtrip c { W.rq_id = 0L; rq_path = ""; rq_action = W.Shutdown })
   with _ -> ());
  close c;
  let deadline = Measure.now () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ when Measure.now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
    | 0, _ ->
        Unix.kill d.pid Sys.sigkill;
        ignore (Unix.waitpid [] d.pid)
    | _ -> ()
  in
  reap ()

(* Registry counters from the metrics wire action. *)
let scrape c =
  let r = roundtrip c { W.rq_id = 0L; rq_path = ""; rq_action = W.Metrics } in
  let counter name =
    J.to_list (J.member "metrics" (J.of_string r.W.rs_payload))
    |> List.find_map (fun row ->
           if J.member "name" row = J.String name then Some (J.to_int (J.member "value" row))
           else None)
    |> Option.value ~default:0
  in
  (counter "serve.cache.hits", counter "serve.cache.misses", counter "serve.cache.evictions")

(* ------------------------------------------------------------------ *)
(* the workload                                                        *)
(* ------------------------------------------------------------------ *)

type state = { daemon : daemon; conns : conn array }

let make ~smoke ~seed ~exe ~dir =
  let files = write_corpus ~smoke ~seed ~dir in
  let warmup = Filename.concat dir "warmup.elf" in
  Elfkit.Write.to_file warmup
    (Corpus.compile (Corpus.program ~seed:Pipeline.warmup_seed ~index:(-1) ~n_funcs:12));
  let cdf = zipf_cdf (Array.length files) in
  let state = ref None in
  let get () = Option.get !state in
  (* the traced daemon's --trace-out, written when it shuts down *)
  let trace_file = Filename.concat dir "rvserved-trace.json" in
  let traced_daemon = ref false in
  (* the first payload seen per (action, spec, file): every later
     response for that key, warm or cold, must repeat it byte for byte *)
  let payloads = Hashtbl.create 256 in
  let check_response (rq : W.request) (rs : W.response) =
    if not rs.W.rs_ok then Error (Printf.sprintf "job %Ld: %s" rq.W.rq_id rs.W.rs_error)
    else
      let key = (W.action_name rq.W.rq_action, W.spec_key rq.W.rq_action, rq.W.rq_path) in
      match Hashtbl.find_opt payloads key with
      | None ->
          Hashtbl.replace payloads key rs.W.rs_payload;
          Ok ()
      | Some p when p = rs.W.rs_payload -> Ok ()
      | Some _ ->
          Error
            (Printf.sprintf "job %Ld: %s payload of %s differs from the first one" rq.W.rq_id
               (W.action_name rq.W.rq_action) rq.W.rq_path)
  in
  let peak_rss = ref 0.0 in
  (* latencies of the last window's jobs, in ms, by kind *)
  let by_kind = Hashtbl.create 8 in
  let setup ~traced =
    traced_daemon := traced;
    let socket = Filename.concat dir "rvserved.sock" in
    let daemon, c0 =
      spawn ~exe ~socket ?trace_out:(if traced then Some trace_file else None) ()
    in
    let c1 = Option.get (connect socket) in
    state := Some { daemon; conns = [| c0; c1 |] };
    (* warm-up: one job of each kind on a file outside the corpus *)
    List.iter
      (fun (_, a) ->
        let rs = roundtrip c0 { W.rq_id = -1L; rq_path = warmup; rq_action = a } in
        if not rs.W.rs_ok then failwith ("warm-up job failed: " ^ rs.W.rs_error))
      mix
  in
  let teardown () =
    Option.iter
      (fun s ->
        state := None;
        peak_rss := Measure.peak_rss_mb s.daemon.pid;
        close s.conns.(1);
        shutdown s.daemon s.conns.(0))
      !state
  in
  (* The closed loop: both connections busy until the window closes. *)
  let window ~breakdown:_ ~seconds ~min_ops ~first:_ ~all:(acc : Acc.t) : Measure.window =
    let s = get () in
    let h0, m0, e0 = scrape s.conns.(0) in
    let traced = Dyn_obs.Trace.is_enabled () in
    Hashtbl.reset by_kind;
    let t0_window = Measure.now () in
    let t_end = t0_window +. seconds in
    let next = ref 0 in
    let lat = ref [] and failures = ref [] in
    let busy = Array.make 2 None in
    let start k =
      let rq = job ~seed ~files ~cdf !next in
      incr next;
      busy.(k) <- Some (rq, Dyn_obs.Trace.now_ns ());
      send s.conns.(k) rq
    in
    start 0;
    start 1;
    let open_fds () =
      List.filter_map (fun k -> Option.map (fun _ -> s.conns.(k).fd) busy.(k)) [ 0; 1 ]
    in
    while open_fds () <> [] do
      let ready, _, _ = Unix.select (open_fds ()) [] [] 60.0 in
      if ready = [] then failwith "rvserved stopped answering";
      Array.iteri
        (fun k b ->
          match b with
          | Some (rq, t0) when List.mem s.conns.(k).fd ready ->
              let rs = recv s.conns.(k) in
              let t_recv = Dyn_obs.Trace.now_ns () in
              let kind = W.action_name rq.W.rq_action in
              (match check_response rq rs with
              | Ok () -> ()
              | Error msg -> failures := msg :: !failures);
              let t1 = Dyn_obs.Trace.now_ns () in
              if traced then begin
                let tid = 100 + k in
                Dyn_obs.Trace.complete ~tid ~parent:"" ~t0_ns:t0 ~t1_ns:t1 "bench.op";
                Dyn_obs.Trace.complete ~tid ~parent:"bench.op" ~t0_ns:t0 ~t1_ns:t_recv
                  ("bench.serve.job." ^ kind);
                Dyn_obs.Trace.complete ~tid ~parent:"bench.op" ~t0_ns:t_recv ~t1_ns:t1
                  "bench.check"
              end;
              let dt = float (t1 - t0) /. 1e9 in
              lat := dt :: !lat;
              Hashtbl.replace by_kind kind
                ((dt *. 1e3) :: Option.value (Hashtbl.find_opt by_kind kind) ~default:[]);
              busy.(k) <- None;
              if !next < min_ops || Measure.now () < t_end then start k
          | _ -> ())
        busy
    done;
    let busy_s = Measure.now () -. t0_window in
    let h1, m1, e1 = scrape s.conns.(0) in
    Acc.add_list acc
      [
        ("serve.cache.hits", float (h1 - h0));
        ("serve.cache.misses", float (m1 - m0));
        ("serve.cache.evictions", float (e1 - e0));
      ];
    let latencies = Array.of_list (List.rev !lat) in
    { Measure.latencies; failures = List.rev !failures; busy_s }
  in
  (* Exact code growth: one rewrite job per corpus file, after the
     window (the same jobs the mix sends, so mostly cache hits). *)
  let code_growth () =
    let s = get () in
    let orig = ref 0 and out = ref 0 and failures = ref [] in
    Array.iteri
      (fun i path ->
        let rq =
          { W.rq_id = Int64.of_int (-2 - i); rq_path = path; rq_action = W.Rewrite spec }
        in
        let rs = roundtrip s.conns.(0) rq in
        match check_response rq rs with
        | Error msg -> failures := msg :: !failures
        | Ok () ->
            orig := !orig + (Unix.stat path).Unix.st_size;
            out := !out + J.to_int (J.member "out_size" (J.of_string rs.W.rs_payload)))
      files;
    (100.0 *. float (!out - !orig) /. float !orig, List.rev !failures)
  in
  (* The last window's median latency of each job kind, client side, and
     the self time per job of the daemon's own pool:wait, execute and
     serialize spans, from its --trace-out (after teardown).  The
     daemon's job count is its number of job:<kind> spans. *)
  let served_layers () =
    let p50 =
      List.map
        (fun k ->
          ( "serve.job." ^ k ^ ".p50_ms",
            Measure.median
              (Array.of_list (Option.value (Hashtbl.find_opt by_kind k) ~default:[])) ))
        kinds
    in
    if not (!traced_daemon && Sys.file_exists trace_file) then p50
    else
      let self =
        Measure.self_times_us (In_channel.with_open_bin trace_file In_channel.input_all)
      in
      let jobs =
        List.fold_left
          (fun a (name, (_, n)) -> if String.starts_with ~prefix:"job:" name then a + n else a)
          0 self
      in
      let per_job_ms name =
        match List.assoc_opt name self with
        | Some (us, _) when jobs > 0 -> float us /. 1e3 /. float jobs
        | _ -> 0.0
      in
      Printf.printf "daemon self time per job over %d jobs:\n" jobs;
      p50
      @ List.map
          (fun (metric, span) ->
            Printf.printf "  %-10s %10.4f ms\n" span (per_job_ms span);
            (metric, per_job_ms span))
          [
            ("serve.pool_wait_ms", "pool:wait");
            ("serve.execute_ms", "execute");
            ("serve.serialize_ms", "serialize");
          ]
  in
  {
    Workload.setup;
    teardown;
    window;
    code_growth = (fun ~first:_ -> code_growth ());
    peak_rss_mb = (fun () -> !peak_rss);
    served_layers;
    n_items = 0;
  }
