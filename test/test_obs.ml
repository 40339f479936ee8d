(* Dyn_obs: histogram bucket boundaries, merge-at-scrape correctness
   under domain concurrency, trace-export validity, the --stats view of
   the trace, the daemon's span names, and the warm=cold payload
   contract with telemetry switched on. *)

module R = Dyn_obs.Registry
module T = Dyn_obs.Trace
module J = Dyn_util.Jsonw
module Cache = Serve_api.Cache
module Wire = Serve_api.Wire
module Jobs = Serve_api.Jobs
module Pool = Serve_api.Pool

(* --- histogram buckets --- *)

let test_bucket_boundaries () =
  let cases =
    [
      (* powers of two from 1ns to >1s land on consecutive buckets *)
      (0, 0); (1, 0); (2, 1); (3, 1); (4, 2); (7, 2); (8, 3);
      (1023, 9); (1024, 10);
      (1_000_000, 19); (* ~1ms: 2^19 = 524288 <= 1e6 < 2^20 *)
      ((1 lsl 30) - 1, 29);
      (1 lsl 30, 30);
      ((1 lsl 31) - 1, 30);
      (1 lsl 31, 31); (* > ~2.1s: the ">1s" overflow bucket *)
      (max_int, 31);
    ]
  in
  List.iter
    (fun (ns, want) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of_ns %d" ns) want
        (R.bucket_of_ns ns))
    cases;
  Alcotest.(check int) "n_buckets" 32 R.n_buckets

let test_histogram_view () =
  let h = R.histogram "t.hist.view" in
  (* one observation per power-of-two bucket, 0..9 *)
  for i = 0 to 9 do
    R.observe h (1 lsl i)
  done;
  let hv = R.histogram_view h in
  Alcotest.(check int) "count" 10 hv.R.hv_count;
  Alcotest.(check int) "sum" 1023 hv.R.hv_sum_ns;
  for i = 0 to 9 do
    Alcotest.(check int) (Printf.sprintf "bucket %d" i) 1 hv.R.hv_buckets.(i)
  done;
  (* negative observations clamp into bucket 0 rather than vanishing *)
  R.observe h (-5);
  let hv = R.histogram_view h in
  Alcotest.(check int) "clamped count" 11 hv.R.hv_count;
  Alcotest.(check int) "clamped bucket" 2 hv.R.hv_buckets.(0)

let test_quantiles () =
  let h = R.histogram "t.hist.quantile" in
  (* 90 fast (≈1us) + 10 slow (≈1ms) observations *)
  for _ = 1 to 90 do
    R.observe h 1024
  done;
  for _ = 1 to 10 do
    R.observe h 1_000_000
  done;
  let hv = R.histogram_view h in
  Alcotest.(check int) "p50 = fast bucket bound" ((1 lsl 11) - 1)
    (R.approx_quantile_ns hv 0.5);
  Alcotest.(check int) "p99 = slow bucket bound" ((1 lsl 20) - 1)
    (R.approx_quantile_ns hv 0.99);
  let overflow = R.histogram "t.hist.overflow" in
  R.observe overflow max_int;
  Alcotest.(check int) "overflow quantile" max_int
    (R.approx_quantile_ns (R.histogram_view overflow) 0.5)

(* --- merge-at-scrape under domain concurrency --- *)

let hammer n_domains f =
  List.init n_domains (fun i -> Domain.spawn (fun () -> f i))
  |> List.iter Domain.join

let test_counter_merge () =
  let c = R.counter "t.counter.merge" in
  hammer 4 (fun _ ->
      for _ = 1 to 10_000 do
        R.incr c
      done;
      for _ = 1 to 100 do
        R.incr ~by:5 c
      done);
  Alcotest.(check int) "exact total" (4 * (10_000 + 500)) (R.counter_value c)

let test_histogram_merge () =
  let h = R.histogram "t.hist.merge" in
  hammer 4 (fun _ ->
      for i = 0 to 9 do
        for _ = 1 to 100 do
          R.observe h (1 lsl i)
        done
      done);
  let hv = R.histogram_view h in
  Alcotest.(check int) "count" 4_000 hv.R.hv_count;
  Alcotest.(check int) "sum" (4 * 100 * 1023) hv.R.hv_sum_ns;
  for i = 0 to 9 do
    Alcotest.(check int) (Printf.sprintf "bucket %d" i) 400 hv.R.hv_buckets.(i)
  done

let test_gauge_balance () =
  let g = R.gauge "t.gauge.balance" in
  hammer 4 (fun _ ->
      for _ = 1 to 10_000 do
        R.add g 1;
        R.add g (-1)
      done);
  Alcotest.(check int) "paired add/sub nets zero" 0 (R.gauge_value g)

let test_enabled_switch () =
  let c = R.counter "t.counter.switch" in
  let g = R.gauge "t.gauge.switch" in
  let h = R.histogram "t.hist.switch" in
  let before = R.counter_value c in
  R.set_enabled false;
  R.incr c;
  R.observe h 42;
  R.add g 7;
  R.set_enabled true;
  Alcotest.(check int) "counter frozen" before (R.counter_value c);
  Alcotest.(check int) "histogram frozen" 0 (R.histogram_view h).R.hv_count;
  (* gauges track state, not rate: they must survive the toggle *)
  Alcotest.(check int) "gauge live" 7 (R.gauge_value g)

let test_kind_clash () =
  let _ = R.counter "t.kind.clash" in
  (match R.histogram "t.kind.clash" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "same name, different kind should raise");
  (* same name, same kind: the one handle comes back *)
  let a = R.counter "t.kind.clash" and b = R.counter "t.kind.clash" in
  R.incr a;
  Alcotest.(check int) "shared cell" (R.counter_value a) (R.counter_value b)

let test_snapshot_sorted () =
  ignore (R.counter "t.zzz");
  ignore (R.counter "t.aaa");
  let names = List.map (fun r -> r.R.r_name) (R.snapshot ()) in
  Alcotest.(check bool)
    "rows sorted by name" true
    (List.sort compare names = names)

(* --- trace export --- *)

let with_tracing f =
  T.clear ();
  T.set_enabled true;
  Fun.protect ~finally:(fun () -> T.set_enabled false) f

let test_trace_nesting_and_chrome () =
  with_tracing (fun () ->
      T.with_span "outer" (fun () ->
          T.with_span "inner" (fun () -> ignore (Sys.opaque_identity 1));
          T.log ~level:T.Info ~fields:[ ("k", "v") ] "hello"));
  let by_name n =
    List.find (fun e -> e.T.ev_name = n) (T.events ())
  in
  let outer = by_name "outer" and inner = by_name "inner" in
  Alcotest.(check string) "inner's parent" "outer" inner.T.ev_parent;
  Alcotest.(check string) "outer is a root" "" outer.T.ev_parent;
  Alcotest.(check bool)
    "inner time-contained in outer" true
    (inner.T.ev_ts_ns >= outer.T.ev_ts_ns
    && inner.T.ev_ts_ns + inner.T.ev_dur_ns
       <= outer.T.ev_ts_ns + outer.T.ev_dur_ns);
  (* the chrome export must parse (with our integer-only parser) and
     carry every span as a complete event *)
  let j = J.of_string (T.chrome_json ()) in
  let evs = J.to_list (J.member "traceEvents" j) in
  let names = List.map (fun e -> J.to_str (J.member "name" e)) evs in
  Alcotest.(check bool) "outer exported" true (List.mem "outer" names);
  Alcotest.(check bool) "inner exported" true (List.mem "inner" names);
  List.iter
    (fun e ->
      match J.to_str (J.member "ph" e) with
      | "X" -> Alcotest.(check bool) "dur >= 1us" true (J.to_int (J.member "dur" e) >= 1)
      | "i" -> ()
      | ph -> Alcotest.failf "unexpected phase %s" ph)
    evs

let test_trace_ndjson () =
  with_tracing (fun () ->
      T.with_span "a" (fun () -> ());
      T.log ~level:T.Warn "w");
  let lines =
    String.split_on_char '\n' (String.trim (T.ndjson ()))
  in
  Alcotest.(check int) "one line per event" 2 (List.length lines);
  List.iter
    (fun line ->
      let j = J.of_string line in
      Alcotest.(check bool)
        "ts_ns leads" true
        (String.length line > 9 && String.sub line 0 9 = "{\"ts_ns\":");
      match J.member "level" j with
      | J.String _ -> ()
      | _ -> Alcotest.fail "level field missing")
    lines

let test_trace_off_records_nothing () =
  T.clear ();
  T.set_enabled false;
  T.with_span "ghost" (fun () -> ());
  T.log "ghost";
  Alcotest.(check int) "no events" 0 (List.length (T.events ()))

let test_trace_ring_bound () =
  with_tracing (fun () ->
      T.set_capacity 16;
      for i = 1 to 40 do
        T.log (Printf.sprintf "e%d" i)
      done;
      Alcotest.(check int) "ring bounded" 16 (List.length (T.events ()));
      Alcotest.(check int) "drops counted" 24 (T.dropped ());
      (* oldest dropped: the survivors are the last 16 *)
      (match T.events () with
      | first :: _ -> Alcotest.(check string) "oldest survivor" "e25" first.T.ev_name
      | [] -> Alcotest.fail "empty ring"));
  T.set_capacity 65536

(* --- the --stats view of the trace --- *)

let count_spans name =
  List.length
    (List.filter (fun e -> e.T.ev_name = name && e.T.ev_level = "span") (T.events ()))

let test_span_counter_domain_safety () =
  let c = R.counter "obs-race-n" in
  with_tracing (fun () ->
      hammer 4 (fun _ ->
          for _ = 1 to 10_000 do
            T.with_span "obs-race" (fun () -> R.incr c)
          done));
  Alcotest.(check int) "every span recorded" 40_000 (count_spans "obs-race");
  Alcotest.(check int) "no span dropped" 0 (T.dropped ());
  Alcotest.(check int) "every incr counted" 40_000 (R.counter_value c)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_stats_spans () =
  let widgets = R.counter "t.stats.widgets" in
  let out =
    with_tracing (fun () ->
        let v = T.with_span "work" (fun () -> T.with_span "inner" (fun () -> 7)) in
        Alcotest.(check int) "nested value" 7 v;
        Alcotest.(check int) "second call" 1 (T.with_span "work" (fun () -> 1));
        R.incr widgets;
        R.incr ~by:4 widgets;
        (* exceptions still get timed *)
        (try T.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
        Format.asprintf "%a" T.pp_stats ())
  in
  let row name = List.find_opt (fun l -> contains l name) (String.split_on_char '\n' out) in
  let has_row name suffix =
    match row name with Some l -> contains l suffix | None -> false
  in
  Alcotest.(check bool) "work span: two calls" true (has_row "  work " "(2 calls)");
  Alcotest.(check bool) "nested span: one call" true (has_row "  inner " "(1 call)");
  Alcotest.(check bool) "exception span timed" true (has_row "  boom " "(1 call)");
  Alcotest.(check bool) "registry counter row" true (has_row "t.stats.widgets" "5");
  Alcotest.(check bool) "zero rows hidden" false (contains out "t.zzz")

(* --- the daemon's span names, and warm = cold with telemetry on --- *)

let temp_dir =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rvobs_test_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists d) then Unix.mkdir d 0o755;
  d

let fib_elf =
  lazy
    (let path = Filename.concat temp_dir "fib.elf" in
     if not (Sys.file_exists path) then
       Elfkit.Write.to_file path
         (Minicc.Driver.compile Minicc.Programs.fib).Minicc.Driver.image;
     path)

(* bench/e2e/served.ml reads these names from a traced rvserved *)
let test_daemon_span_contract () =
  let path = Lazy.force fib_elf in
  with_tracing (fun () ->
      let c = Cache.create () and pool = Pool.create ~domains:1 in
      let req = { Wire.rq_id = 1L; rq_path = path; rq_action = Wire.Parse } in
      for _ = 1 to 2 do
        match Pool.run_batch pool [ (fun () -> Jobs.exec c req) ] with
        | [ Ok r ] -> Alcotest.(check bool) "job ok" true r.Wire.rs_ok
        | _ -> Alcotest.fail "pool lost the job"
      done;
      Pool.shutdown pool);
  List.iter
    (fun (name, n) -> Alcotest.(check int) (name ^ " spans") n (count_spans name))
    [
      ("job:parse", 2); ("cache-lookup", 2); ("pool:wait", 2);
      (* the warm job is served from the cache *)
      ("execute", 1); ("serialize", 1);
    ];
  (* the cold job's library spans nest under execute *)
  List.iter
    (fun name ->
      match List.find_opt (fun e -> e.T.ev_name = name) (T.events ()) with
      | Some e -> Alcotest.(check string) (name ^ " parent") "execute" e.T.ev_parent
      | None -> Alcotest.failf "no %s span" name)
    [ "elf.read"; "symtab.build"; "parse.cfg" ]

let test_warm_cold_with_telemetry () =
  (* metrics and spans must never leak into payload bytes *)
  with_tracing (fun () ->
      let path = Lazy.force fib_elf in
      List.iter
        (fun (action, name) ->
          let c = Cache.create () in
          let req = { Wire.rq_id = 1L; rq_path = path; rq_action = action } in
          let cold = Jobs.exec c req in
          let warm = Jobs.exec c req in
          Alcotest.(check bool) (name ^ " cold ok") true cold.Wire.rs_ok;
          Alcotest.(check bool) (name ^ " warm cached") true warm.Wire.rs_cached;
          Alcotest.(check string)
            (name ^ " warm = cold under telemetry")
            cold.Wire.rs_payload warm.Wire.rs_payload)
        [
          (Wire.Parse, "parse");
          (Wire.Lint, "lint");
          ( Wire.Rewrite
              (Patch_api.Rewriter.counter_spec ~entries:[ "main" ] ()),
            "rewrite" );
        ])

(* --- metrics wire action --- *)

let test_metrics_wire_roundtrip () =
  let req = { Wire.rq_id = 11L; rq_path = ""; rq_action = Wire.Metrics } in
  let req' = Wire.decode_request (Wire.encode_request req) in
  Alcotest.(check bool) "roundtrip" true (req = req');
  let req'' = Wire.decode_request "{\"id\":11,\"action\":\"metrics\"}" in
  Alcotest.(check bool) "bare decode" true (req = req'')

let () =
  Alcotest.run "obs"
    [
      ( "histogram",
        [
          Alcotest.test_case "bucket boundaries" `Quick test_bucket_boundaries;
          Alcotest.test_case "view" `Quick test_histogram_view;
          Alcotest.test_case "approx quantiles" `Quick test_quantiles;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counter merge (4 domains)" `Quick
            test_counter_merge;
          Alcotest.test_case "histogram merge (4 domains)" `Quick
            test_histogram_merge;
          Alcotest.test_case "gauge balance (4 domains)" `Quick
            test_gauge_balance;
          Alcotest.test_case "enabled switch" `Quick test_enabled_switch;
          Alcotest.test_case "kind clash" `Quick test_kind_clash;
          Alcotest.test_case "snapshot sorted" `Quick test_snapshot_sorted;
        ] );
      ( "trace",
        [
          Alcotest.test_case "nesting + chrome export" `Quick
            test_trace_nesting_and_chrome;
          Alcotest.test_case "ndjson export" `Quick test_trace_ndjson;
          Alcotest.test_case "off records nothing" `Quick
            test_trace_off_records_nothing;
          Alcotest.test_case "ring bound" `Quick test_trace_ring_bound;
        ] );
      ( "stats",
        [
          Alcotest.test_case "4-domain hammer" `Quick
            test_span_counter_domain_safety;
          Alcotest.test_case "spans and counters" `Quick test_stats_spans;
        ] );
      ( "differential",
        [
          Alcotest.test_case "daemon span names" `Quick
            test_daemon_span_contract;
          Alcotest.test_case "warm = cold with telemetry on" `Quick
            test_warm_cold_with_telemetry;
          Alcotest.test_case "metrics wire roundtrip" `Quick
            test_metrics_wire_roundtrip;
        ] );
    ]
