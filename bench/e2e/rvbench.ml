(* rvbench: the end-to-end benchmark of the toolkit, with a per-layer
   breakdown.

     rvbench --workload W --seed N --seconds S --trace 0|1
             [--trace-out F] [--json OUT]   one workload, one pass
     rvbench [--seed N] [--smoke]            every workload, each in a
                                             fresh process
     rvbench --compare OLD.json NEW.json     medians of two --json logs

   --trace 0 measures the end-to-end metrics with tracing off; --trace 1
   splits the time between an untraced and a traced window over the same
   op sequence and reports the per-layer metrics from the traced one.
   Either way the last line of stdout is one JSON object with the
   outcome and the metrics BENCHMARK.json declares for that mode.  See
   README.md for the workloads and every metric. *)

module Acc = Measure.Acc
module Trace = Dyn_obs.Trace

let workloads = [ "rewrite-wide"; "rewrite-sparse"; "instrumented-run"; "served-mix" ]

(* Ops the end-to-end window runs at least: the percentiles are taken
   over every op, so op_p90_ms has at least ten samples beyond it. *)
let min_ops_e2e = 100

(* Ops each window of a traced pass runs at least. *)
let min_ops_traced = 20

(* Independent set-ups per run; set-up time is their median. *)
let setup_reps = 11

(* The bench spans of the in-process workloads, each directly under an
   op, in report order; each gives a per-layer "<layer>_ms" metric.
   served-mix's ops hold one "serve.job.<kind>" span each instead. *)
let layers =
  [
    "elf.read"; "symtab.build"; "parse.cfg"; "patch.insert"; "patch.plan"; "patch.apply";
    "elf.write"; "lint.verify"; "verify.symbolic"; "sim.load"; "sim.run"; "trace.drain";
    "perf.profile"; "check";
  ]

(* served-mix's per-layer metrics (see Served.make); 0 elsewhere. *)
let served_layers =
  List.map (fun k -> ("serve.job." ^ k ^ ".p50_ms", "ms")) Served.kinds
  @ [ ("serve.pool_wait_ms", "ms"); ("serve.execute_ms", "ms"); ("serve.serialize_ms", "ms") ]

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : int;
  smoke : bool;
  trace_out : string option;
  json_out : string option;
  root : string;  (** where BENCHMARK.json and BENCH_*.json live *)
  rvserved : string;
}

(* ------------------------------------------------------------------ *)
(* set-up time                                                          *)
(* ------------------------------------------------------------------ *)

(* Median over [reps] set-ups: [reps - 1] in forked children, which
   start from this process's state before its own set-up (so each pays
   every lazy first-use cost again), then the real one. *)
let timed_setup (w : Workload.t) ~reps =
  let once () =
    let t0 = Measure.now () in
    w.Workload.setup ~traced:false;
    Measure.now () -. t0
  in
  let in_child () =
    flush_all ();
    let r, wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
        Unix.close r;
        let msg =
          match once () with
          | t -> Printf.sprintf "%.9f" t
          | exception e -> "failed: " ^ Printexc.to_string e
        in
        (try w.Workload.teardown () with _ -> ());
        ignore (Unix.write_substring wr msg 0 (String.length msg));
        Unix._exit 0
    | pid ->
        Unix.close wr;
        let ic = Unix.in_channel_of_descr r in
        let msg = In_channel.input_all ic in
        close_in ic;
        ignore (Unix.waitpid [] pid);
        (match float_of_string_opt msg with
        | Some t -> t
        | None -> failwith ("set-up in a child: " ^ msg))
  in
  let children = List.init (reps - 1) (fun _ -> in_child ()) in
  let samples = Array.of_list (children @ [ once () ]) in
  (Measure.median samples, samples)

(* ------------------------------------------------------------------ *)
(* one workload                                                         *)
(* ------------------------------------------------------------------ *)

(* A directory of this process's own under dune's _build, which is
   outside version control already; removed at exit. *)
let scratch_dir name =
  let parent = Filename.concat "_build" "rvbench" in
  let dir = Filename.concat parent (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  List.iter
    (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
    [ "_build"; parent; dir ];
  at_exit (fun () ->
      Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
      List.iter
        (fun d -> if Sys.readdir d = [||] then Sys.rmdir d)
        [ dir; parent; "_build" ]);
  dir

let make_workload o name : Workload.t =
  let seed = Int64.of_int o.seed and smoke = o.smoke in
  match name with
  | "rewrite-wide" -> Pipeline.rewrite_wide ~smoke ~seed
  | "rewrite-sparse" -> Pipeline.rewrite_sparse ~smoke ~seed
  | "instrumented-run" -> Pipeline.instrumented_run ~smoke ~seed
  | "served-mix" -> Served.make ~smoke ~seed ~exe:o.rvserved ~dir:(scratch_dir name)
  | w -> failwith ("unknown workload " ^ w)

let ms s = s *. 1e3

(* The end-to-end pass: set-up, one untraced window. *)
let end_to_end o (w : Workload.t) ~tally ~problems =
  let setup_s, setup_samples = timed_setup w ~reps:(if o.smoke then 2 else setup_reps) in
  Printf.printf "setup: %s s (median of %d)\n"
    (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") setup_samples)))
    (Array.length setup_samples);
  let first = Acc.create () and all = Acc.create () in
  let win =
    w.Workload.window ~breakdown:false ~seconds:o.seconds
      ~min_ops:(if o.smoke then 6 else min_ops_e2e)
      ~first ~all
  in
  tally win;
  let growth, growth_failures = w.Workload.code_growth ~first in
  problems growth_failures;
  w.Workload.teardown ();
  let n_ops = Array.length win.Measure.latencies and cycle = w.Workload.n_items in
  (* The shared host has slow phases, seconds to a minute long, that
     slow whole passes and never speed one up: with passes over items,
     the throughput is the upper quartile of the pass rates, the rate of
     the passes the host disturbed least. *)
  let ops_per_s =
    if cycle = 0 then float n_ops /. win.Measure.busy_s
    else snd (Measure.quartiles (Measure.pass_rates ~cycle win.Measure.latencies))
  in
  let lat = Measure.sorted win.Measure.latencies in
  let p90 = Measure.percentile lat 90.0 in
  Printf.printf "window: %d ops in %.2f s%s; %d ops slower than op_p90_ms\n" n_ops
    win.Measure.busy_s
    (if cycle = 0 then "" else Printf.sprintf ", %d passes of %d" (n_ops / cycle) cycle)
    (Array.fold_left (fun n t -> if t > p90 then n + 1 else n) 0 lat);
  [
    Report.metric "setup_s" "s" setup_s;
    Report.metric "ops_per_s" "op/s" ops_per_s;
    Report.metric "op_p50_ms" "ms" (ms (Measure.percentile lat 50.0));
    Report.metric "op_p90_ms" "ms" (ms p90);
    Report.metric "peak_rss_mb" "MB" (w.Workload.peak_rss_mb ());
    Report.metric "code_growth_pct" "%" growth;
  ]

(* The traced pass: an untraced and a traced window over the same op
   sequence, each half the time and run alike but for tracing; the
   per-layer metrics come from the traced one's spans and sums. *)
let traced o (w : Workload.t) ~tally ~problems =
  (* a smoke window runs every item three times, so that the coverage
     gate takes a median of three ops *)
  let seconds = o.seconds /. 2.0
  and min_ops = if o.smoke then max 4 (3 * w.Workload.n_items) else min_ops_traced in
  let run ~traced =
    w.Workload.setup ~traced;
    let first = Acc.create () and all = Acc.create () in
    if traced then begin
      Trace.set_capacity (1 lsl 22);
      Trace.clear ();
      Trace.set_enabled true
    end;
    let win = w.Workload.window ~breakdown:true ~seconds ~min_ops ~first ~all in
    Trace.set_enabled false;
    tally win;
    w.Workload.teardown ();
    (win, first, all)
  in
  let plain, _, _ = run ~traced:false in
  let win, first, all = run ~traced:true in
  let bd = Measure.breakdown (Trace.events ()) in
  if Trace.dropped () > 0 then
    problems [ Printf.sprintf "%d spans dropped" (Trace.dropped ()) ];
  let cov = Measure.gated_coverage ~cycle:w.Workload.n_items bd.Measure.coverage in
  let min_cov = Array.fold_left Float.min 1.0 bd.Measure.coverage in
  if cov < 0.95 then
    problems
      [
        Printf.sprintf "layer spans cover only %.1f%% of the median op of some item"
          (100.0 *. cov);
      ];
  Option.iter Trace.write_out o.trace_out;
  (* p50 of the ops both windows ran, op for op *)
  let common =
    min (Array.length plain.Measure.latencies) (Array.length win.Measure.latencies)
  in
  let p50 (x : Measure.window) = Measure.median (Array.sub x.Measure.latencies 0 common) in
  let layer name =
    float (Option.value (List.assoc_opt name bd.Measure.layer_ns) ~default:0)
  in
  let ms_per_op ns = ns /. 1e6 /. float (max 1 bd.Measure.ops) in
  let per_s count name = if layer name = 0.0 then 0.0 else count /. (layer name /. 1e9) in
  let per_op key = Acc.ratio first key "ops" in
  Printf.printf "traced window: %d ops; span coverage: gated %.1f%%, lowest op %.1f%%\n"
    bd.Measure.ops (100.0 *. cov) (100.0 *. min_cov);
  Printf.printf "layer ms per op:\n";
  List.iter
    (fun (l, ns) -> Printf.printf "  %-24s %10.3f\n" l (ms_per_op (float ns)))
    bd.Measure.layer_ns;
  let hits = Acc.get all "serve.cache.hits" and misses = Acc.get all "serve.cache.misses" in
  let covered = List.fold_left (fun a (_, v) -> a + v) 0 bd.Measure.layer_ns in
  List.map (fun l -> Report.metric (l ^ "_ms") "ms" (ms_per_op (layer l))) layers
  @ [
      Report.metric "bench.op_ms" "ms" (ms_per_op (float bd.Measure.op_ns));
      Report.metric "bench.unattributed_ms" "ms"
        (ms_per_op (float (bd.Measure.op_ns - covered)));
      Report.metric "bench.span_coverage_pct" "%" (100.0 *. cov);
      Report.metric "trace_overhead_pct" "%" (100.0 *. ((p50 win /. p50 plain) -. 1.0));
      Report.metric "parse.blocks" "count" (per_op "parse.blocks");
      Report.metric "parse.minsns_per_s" "Minsn/s"
        (per_s (Acc.get all "parse.insns" /. 1e6) "parse.cfg");
      Report.metric "patch.sites" "count" (per_op "patch.sites");
      Report.metric "patch.dead_alloc_ratio" "ratio"
        (Acc.ratio first "patch.dead_alloc" "patch.sites");
      Report.metric "patch.trap_springboards" "count" (per_op "patch.trap_springboards");
      Report.metric "patch.tramp_bytes" "B" (per_op "patch.tramp_bytes");
      Report.metric "lint.errors" "count" (Acc.get first "lint.errors");
      Report.metric "verify.sites_per_s" "site/s"
        (per_s (Acc.get all "verify.sites") "verify.symbolic");
      Report.metric "verify.proved_ratio" "ratio"
        (Acc.ratio first "verify.proved" "verify.sites");
      Report.metric "verify.unknown_sites" "count" (Acc.get first "verify.unknown");
      Report.metric "sim.mips" "Minsn/s" (per_s (Acc.get all "sim.instret" /. 1e6) "sim.run");
      Report.metric "serve.cache.hit_ratio" "ratio"
        (if hits +. misses = 0.0 then 0.0 else hits /. (hits +. misses));
      Report.metric "serve.cache.evictions" "count" (Acc.get all "serve.cache.evictions");
    ]
  @
  let got = w.Workload.served_layers () in
  List.map
    (fun (n, u) -> Report.metric n u (Option.value (List.assoc_opt n got) ~default:0.0))
    served_layers

(* The paper-clock metrics of matmul_16x16_reps2: the §4.3 overheads
   (end-to-end) and the simulator, TraceAPI and PerfAPI facts behind them
   (per-layer). *)
let paper_metrics o ~problems =
  let p = Pipeline.paper () in
  problems (Pipeline.cross_check ~root:o.root p);
  let pct mode = List.assoc mode p.Pipeline.p_pct in
  let obs mode = List.assoc mode p.Pipeline.p_obs in
  let base = obs Pipeline.Base in
  let per_record mode =
    Int64.to_float (Int64.sub (obs mode).Pipeline.o_instret base.Pipeline.o_instret)
    /. float (obs mode).Pipeline.o_records
  in
  let e2e =
    [
      Report.metric "fn_count_overhead_pct" "%" (pct Pipeline.Fn_count);
      Report.metric "bb_count_overhead_pct" "%" (pct Pipeline.Bb_count);
      Report.metric "bb_trace_overhead_pct" "%" (pct Pipeline.Bb_trace);
      Report.metric "mem_trace_overhead_pct" "%" (pct Pipeline.Mem_trace);
      Report.metric "sampling_overhead_pct" "%" (pct Pipeline.Sample);
    ]
  in
  let sample = obs Pipeline.Sample in
  let layer =
    List.map
      (fun mode ->
        Report.metric
          ("sim.cycles." ^ Pipeline.mode_name mode)
          "cycles"
          (Int64.to_float (obs mode).Pipeline.o_cycles))
      Pipeline.modes
    @ List.concat_map
        (fun mode ->
          let n = Pipeline.mode_name mode and o = obs mode in
          [
            Report.metric ("trace.records." ^ n) "count" (float o.Pipeline.o_records);
            Report.metric ("trace.flushes." ^ n) "count" (float o.Pipeline.o_flushes);
            Report.metric ("trace.insns_per_record." ^ n) "insn" (per_record mode);
          ])
        [ Pipeline.Bb_trace; Pipeline.Mem_trace ]
    @ [
        Report.metric "perf.samples" "count" (float sample.Pipeline.o_samples);
        Report.metric "perf.cycles_per_sample" "cycles"
          (Int64.to_float sample.Pipeline.o_cycles /. float sample.Pipeline.o_samples);
      ]
  in
  (e2e, layer)

let run_one o name =
  Printf.printf "rvbench %s seed=%d seconds=%g trace=%d%s\n%!" name o.seed o.seconds o.trace
    (if o.smoke then " smoke" else "");
  let t0 = Measure.now () in
  let w = make_workload o name in
  Printf.printf "prep_s: %.3f (corpus generation, not gated)\n%!" (Measure.now () -. t0);
  let e2e_spec, layer_spec = Report.load_spec o.root in
  let attempted = ref 0 and failed = ref 0 and problems = ref [] in
  let add_problems l = problems := !problems @ l in
  let tally (win : Measure.window) =
    attempted := !attempted + Array.length win.Measure.latencies;
    failed := !failed + List.length win.Measure.failures;
    List.iteri (fun i f -> if i < 10 then Printf.printf "FAILED %s\n" f) win.Measure.failures
  in
  (* the smoke pass runs both modes and checks both metric sets *)
  let passes = if o.smoke then [ 0; 1 ] else [ o.trace ] in
  let paper = lazy (paper_metrics o ~problems:add_problems) in
  let metrics =
    (* a failure mid-run must not leave a daemon behind *)
    Fun.protect ~finally:w.Workload.teardown @@ fun () ->
    List.concat_map
      (fun pass ->
        let produced =
          if pass = 0 then end_to_end o w ~tally ~problems:add_problems
          else traced o w ~tally ~problems:add_problems
        in
        let p_e2e, p_layer = Lazy.force paper in
        let all = produced @ if pass = 0 then p_e2e else p_layer in
        add_problems (Report.conformance (if pass = 0 then e2e_spec else layer_spec) all);
        all)
      passes
  in
  Report.print_metrics metrics;
  Printf.printf "fail_ratio: %.4f (%d of %d ops)\n"
    (float !failed /. float (max 1 !attempted)) !failed !attempted;
  List.iter (Printf.printf "PROBLEM %s\n") !problems;
  let correct = !failed = 0 && !problems = [] && !attempted > 0 in
  let line = Report.result_json ~correct ~attempted:!attempted ~failed:!failed metrics in
  Option.iter
    (fun path ->
      Out_channel.with_open_gen [ Open_append; Open_creat; Open_text ] 0o644 path (fun oc ->
          Printf.fprintf oc "%s\n"
            (Report.result_json
               ~extra:
                 [
                   ("workload", Report.quote name);
                   ("seed", string_of_int o.seed);
                   ("trace", string_of_int o.trace);
                 ]
               ~correct ~attempted:!attempted ~failed:!failed metrics)))
    o.json_out;
  print_endline line;
  if correct then 0 else 1

(* Every workload, each in a fresh process running this executable
   with the same arguments. *)
let run_all argv =
  let failures =
    List.filter
      (fun name ->
        let exe = Sys.executable_name in
        let args = Array.concat [ [| exe |]; argv; [| "--workload"; name |] ] in
        flush_all ();
        let pid = Unix.create_process exe args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> false | _ -> true)
      workloads
  in
  List.iter (Printf.printf "rvbench: %s failed\n") failures;
  if failures = [] then 0 else 1

let () =
  let workload = ref None and seed = ref 1 and seconds = ref 28.0 and trace = ref 0 in
  let smoke = ref false and trace_out = ref None and json_out = ref None and root = ref "." in
  let rvserved =
    ref (Filename.concat (Filename.dirname Sys.executable_name) "../../bin/rvserved.exe")
  in
  let old_log = ref "" and new_log = ref "" in
  let spec =
    [
      ( "--workload",
        Arg.String (fun w -> workload := Some w),
        "W  one of " ^ String.concat ", " workloads );
      ("--seed", Arg.Set_int seed, "N  corpus and job-stream seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S  measured time per run (default 28)");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0, default) or per-layer (1) metrics");
      ("--smoke", Arg.Set smoke, " tiny corpora, both passes, every check but timing bounds");
      ( "--trace-out",
        Arg.String (fun f -> trace_out := Some f),
        "F  write the traced window's spans (Chrome JSON)" );
      ( "--json",
        Arg.String (fun f -> json_out := Some f),
        "OUT  append this run's result to OUT (NDJSON)" );
      ( "--root",
        Arg.Set_string root,
        "DIR  where BENCHMARK.json and BENCH_*.json are (default .)" );
      ("--rvserved", Arg.Set_string rvserved, "PATH  the rvserved executable");
      ( "--compare",
        Arg.Tuple [ Arg.Set_string old_log; Arg.Set_string new_log ],
        "OLD NEW  compare two --json logs" );
    ]
  in
  let usage = "rvbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--smoke] ..." in
  Arg.parse spec (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let o =
    {
      workload = !workload;
      seed = !seed;
      seconds = (if !smoke then 0.0 else !seconds);
      trace = !trace;
      smoke = !smoke;
      trace_out = !trace_out;
      json_out = !json_out;
      root = !root;
      rvserved = !rvserved;
    }
  in
  let code =
    match o.workload with
    | _ when !old_log <> "" ->
        if Report.compare_runs ~root:o.root !old_log !new_log then 1 else 0
    | Some name ->
        if not (List.mem name workloads) then (
          prerr_endline ("rvbench: unknown workload " ^ name);
          2)
        else if o.trace <> 0 && o.trace <> 1 then (
          prerr_endline "rvbench: --trace takes 0 or 1";
          2)
        else run_one o name
    | None -> run_all (Array.sub Sys.argv 1 (Array.length Sys.argv - 1))
  in
  exit code
