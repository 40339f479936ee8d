(* The in-process workloads: every op is a sequence of calls into the
   layers' public functions, each wrapped in a bench span named after
   the per-layer metric it feeds (see Measure.span). *)

module Acc = Measure.Acc
module Rw = Patch_api.Rewriter
module Snippet = Codegen_api.Snippet

let span = Measure.span
let f = float_of_int

exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

let pp_stop = Format.asprintf "%a" Rvsim.Machine.pp_stop

(* Run an image to exit under the simulator. *)
let simulate (img : Elfkit.Types.image) =
  let p = span "sim.load" (fun () -> Rvsim.Loader.load img) in
  let stop, out = span "sim.run" (fun () -> Rvsim.Loader.run p) in
  (p, stop, out)

(* ------------------------------------------------------------------ *)
(* rewrite-wide / rewrite-sparse                                       *)
(* ------------------------------------------------------------------ *)

type item = {
  elf : Bytes.t;  (** the original binary, as handed to the toolkit *)
  expect_stop : Rvsim.Machine.stop;
  expect_out : string;
  targets : string list option;
      (** functions whose entries get a counter; [None] = every block *)
}

let prepare_item ~targets src =
  let img = Corpus.compile src in
  let p = Rvsim.Loader.load img in
  let stop, out = Rvsim.Loader.run p in
  { elf = Elfkit.Write.to_bytes img; expect_stop = stop; expect_out = out; targets }

(* The static-rewrite pipeline from ELF bytes to verified rewritten ELF
   bytes, then a simulated run of the result against the original's
   exit code and stdout. *)
let rewrite_op (it : item) (acc : Acc.t) =
  let img = span "elf.read" (fun () -> Elfkit.Read.read it.elf) in
  let st = span "symtab.build" (fun () -> Symtab.of_image img) in
  (* One domain: on a 2-vCPU host a second parse domain gains nothing
     (the op's CPU time equals its wall time) and makes every minor
     collection wait for a peer the host may have descheduled. *)
  let cfg = span "parse.cfg" (fun () -> Parse_api.Parser.parse ~domains:1 st) in
  let rw =
    span "patch.insert" (fun () ->
        let rw = Rw.create st cfg in
        let counter = Rw.allocate_var rw "bench_counter" 8 in
        let plant pt = Rw.insert rw pt [ Snippet.incr counter ] in
        let fns = Parse_api.Cfg.functions cfg in
        (match it.targets with
        | None ->
            List.iter
              (fun fn -> List.iter plant (Patch_api.Point.block_entries cfg fn))
              fns
        | Some names ->
            List.iter
              (fun (fn : Parse_api.Cfg.func) ->
                if List.mem fn.Parse_api.Cfg.f_name names then
                  Option.iter plant (Patch_api.Point.func_entry cfg fn))
              fns);
        rw)
  in
  let plan = span "patch.plan" (fun () -> Rw.plan rw) in
  let out_img = span "patch.apply" (fun () -> Rw.apply_to_image rw plan) in
  let out = span "elf.write" (fun () -> Elfkit.Write.to_bytes out_img) in
  let manifest = Option.get (Rw.manifest rw) in
  let diags =
    span "lint.verify" (fun () ->
        Lint_api.Verifier.verify ~orig:st cfg ~manifest ~rewritten:out_img)
  in
  let report =
    span "verify.symbolic" (fun () ->
        Verify_api.Check.check_manifest ~orig:st cfg ~manifest
          ~rewritten:out_img)
  in
  let reread = span "elf.read" (fun () -> Elfkit.Read.read out) in
  let p, stop, stdout = simulate reread in
  span "check" (fun () ->
      let s = Rw.stats rw in
      let insns =
        Array.fold_left
          (fun n (b : Parse_api.Cfg.block) -> n + List.length b.Parse_api.Cfg.b_insns)
          0 cfg.Parse_api.Cfg.blocks_sorted
      in
      let errors = Lint_api.Diag.n_errors diags in
      Acc.add_list acc
        [
          ("elf.orig_bytes", f (Bytes.length it.elf));
          ("elf.out_bytes", f (Bytes.length out));
          ("parse.blocks", f (Parse_api.Cfg.n_blocks cfg));
          ("parse.insns", f insns);
          ("patch.sites", f s.Rw.n_points);
          ("patch.dead_alloc", f s.Rw.n_dead_alloc);
          ("patch.trap_springboards", f (Rw.n_traps s));
          ("patch.tramp_bytes", f (Bytes.length plan.Rw.pl_tramp_code));
          ("lint.errors", f errors);
          ("verify.sites", f (List.length report.Verify_api.Check.r_sites));
          ("verify.proved", f report.Verify_api.Check.r_ok);
          ("verify.unknown", f report.Verify_api.Check.r_unknown);
          ("sim.instret", Int64.to_float p.Rvsim.Loader.machine.Rvsim.Machine.instret);
        ];
      check (errors = 0) "%d lint errors" errors;
      check (report.Verify_api.Check.r_failed = 0) "%d sites disproved"
        report.Verify_api.Check.r_failed;
      check (stop = it.expect_stop) "rewritten binary stopped with %s, original %s"
        (pp_stop stop) (pp_stop it.expect_stop);
      check (stdout = it.expect_out) "rewritten stdout %S, original %S" stdout
        it.expect_out)

(* ------------------------------------------------------------------ *)
(* instrumented-run                                                    *)
(* ------------------------------------------------------------------ *)

type mode = Base | Fn_count | Bb_count | Bb_trace | Mem_trace | Sample

let modes = [ Base; Fn_count; Bb_count; Bb_trace; Mem_trace; Sample ]

let mode_name = function
  | Base -> "base"
  | Fn_count -> "fn_count"
  | Bb_count -> "bb_count"
  | Bb_trace -> "bb_trace"
  | Mem_trace -> "mem_trace"
  | Sample -> "sample"

(* Sampling period of the PerfAPI mode, in simulated cycles. *)
let sample_period = 10_000L

type mutatee = {
  m_name : string;
  m_image : Elfkit.Types.image;
  m_bytes : int;  (** size of the original ELF file *)
  m_target : string;  (** the function the instrumenting modes cover *)
  m_self_timed : bool;
      (** prints its own elapsed ns, so stdout differs between modes *)
  m_stop : Rvsim.Machine.stop;
  m_out : string;
  m_cycles : int64;  (** of an uninstrumented run *)
  m_hottest : string option;
      (** TraceAPI's hottest function, when coverage and call tree agree *)
}

let prepare_mutatee ~name ~target ~self_timed src =
  let img = Corpus.compile src in
  let p = Rvsim.Loader.load img in
  let stop, out = Rvsim.Loader.run p in
  let v = Perf_api.Validate.validate (Core.open_image img) in
  let hottest =
    match Perf_api.Validate.(v.v_coverage_hottest, v.v_calltree_hottest) with
    | Some a, Some b when a = b -> Some a
    | Some a, None | None, Some a -> Some a
    | _ -> None
  in
  {
    m_name = name;
    m_image = img;
    m_bytes = Bytes.length (Elfkit.Write.to_bytes img);
    m_target = target;
    m_self_timed = self_timed;
    m_stop = stop;
    m_out = out;
    m_cycles = p.Rvsim.Loader.machine.Rvsim.Machine.cycles;
    m_hottest = hottest;
  }

let mutatees ~smoke =
  let mm n = Minicc.Programs.matmul ~n ~reps:2 in
  List.map
    (fun (name, target, self_timed, src) ->
      prepare_mutatee ~name ~target ~self_timed src)
    ((if smoke then []
      else
        [
          ("matmul_16x16_reps2", "multiply", true, mm 16);
          ("matmul_24x24_reps2", "multiply", true, mm 24);
        ])
    @ [
        ("fib", "fib", false, Minicc.Programs.fib);
        ("calls", "add1", false, Minicc.Programs.calls);
        ("switch", "classify", false, Minicc.Programs.switch_demo);
        ("mixed", "scale", false, Minicc.Programs.mixed);
      ])

(* What one mode run observed. *)
type observed = {
  o_stop : Rvsim.Machine.stop;
  o_out : string;
  o_cycles : int64;
  o_instret : int64;
  o_counter : int64;  (** fn/bb count modes *)
  o_records : int;  (** trace modes *)
  o_flushes : int;
  o_samples : int;  (** sample mode *)
  o_hottest : string option;
}

let observed ?(counter = 0L) ?(records = 0) ?(flushes = 0) ?(samples = 0)
    ?hottest (p : Rvsim.Loader.process) stop out =
  {
    o_stop = stop;
    o_out = out;
    o_cycles = p.Rvsim.Loader.machine.Rvsim.Machine.cycles;
    o_instret = p.Rvsim.Loader.machine.Rvsim.Machine.instret;
    o_counter = counter;
    o_records = records;
    o_flushes = flushes;
    o_samples = samples;
    o_hottest = hottest;
  }

(* Instrument [b] for [mode], rewrite, run to exit, drain or collect.
   Counter modes cover [target]'s entry or blocks, trace modes its blocks
   or memory accesses; the sampling profiler runs the original code. *)
let run_mode (b : Core.binary) ~target ~orig_bytes (acc : Acc.t) mode : observed =
  let rewrite rw =
    let plan = span "patch.plan" (fun () -> Rw.plan rw) in
    let img = span "patch.apply" (fun () -> Rw.apply_to_image rw plan) in
    let out = span "elf.write" (fun () -> Elfkit.Write.to_bytes img) in
    span "check" (fun () ->
        let s = Rw.stats rw in
        Acc.add_list acc
          [
            ("elf.orig_bytes", f orig_bytes);
            ("elf.out_bytes", f (Bytes.length out));
            ("patch.sites", f s.Rw.n_points);
            ("patch.dead_alloc", f s.Rw.n_dead_alloc);
            ("patch.trap_springboards", f (Rw.n_traps s));
            ("patch.tramp_bytes", f (Bytes.length plan.Rw.pl_tramp_code));
          ]);
    img
  in
  let counting points =
    let rw, counter =
      span "patch.insert" (fun () ->
          let rw = Rw.create b.Core.symtab b.Core.cfg in
          let c = Rw.allocate_var rw "bench_counter" 8 in
          List.iter (fun pt -> Rw.insert rw pt [ Snippet.incr c ]) (points ());
          (rw, c))
    in
    let p, stop, out = simulate (rewrite rw) in
    observed p stop out
      ~counter:
        (Rvsim.Mem.read64 p.Rvsim.Loader.machine.Rvsim.Machine.mem
           counter.Snippet.v_addr)
  in
  let tracing opts =
    let rw, ring =
      span "patch.insert" (fun () ->
          let rw = Rw.create b.Core.symtab b.Core.cfg in
          let ring = Trace_api.Ring.create rw ~capacity:1024 in
          ignore
            (Trace_api.Tracer.instrument rw b.Core.cfg ~ring ~funcs:[ target ] opts);
          (rw, ring))
    in
    let img = rewrite rw in
    let p, sink =
      span "sim.load" (fun () ->
          let p = Rvsim.Loader.load img in
          let sink = Trace_api.Sink.create ring in
          Trace_api.Sink.install sink p.Rvsim.Loader.os;
          (p, sink))
    in
    let stop, out = span "sim.run" (fun () -> Rvsim.Loader.run p) in
    span "trace.drain" (fun () -> Trace_api.Sink.drain sink p.Rvsim.Loader.machine);
    observed p stop out ~records:(Trace_api.Sink.n_records sink)
      ~flushes:(Trace_api.Sink.flushes sink)
  in
  match mode with
  | Base ->
      let p, stop, out = simulate (Core.image b) in
      observed p stop out
  | Fn_count -> counting (fun () -> [ Core.at_entry b target ])
  | Bb_count -> counting (fun () -> Core.at_blocks b target)
  | Bb_trace -> tracing Trace_api.Tracer.coverage_only
  | Mem_trace -> tracing Trace_api.Tracer.mem_only
  | Sample ->
      let r =
        span "perf.profile" (fun () ->
            Perf_api.Profiler.profile
              ~config:
                {
                  Perf_api.Profiler.default_config with
                  Perf_api.Profiler.period = sample_period;
                  keep_samples = false;
                }
              b)
      in
      {
        o_stop = r.Perf_api.Profiler.r_stop;
        o_out = r.Perf_api.Profiler.r_stdout;
        o_cycles = r.Perf_api.Profiler.r_elapsed_cycles;
        o_instret = r.Perf_api.Profiler.r_instret;
        o_counter = 0L;
        o_records = 0;
        o_flushes = 0;
        o_samples = r.Perf_api.Profiler.r_n_samples;
        o_hottest = Perf_api.Profiler.hottest r;
      }

(* The per-op output checks of instrumented-run.  [first] holds the
   first observation of every (mutatee, mode): simulated runs are
   deterministic, so every repeat must match it exactly, and bb-trace's
   record count must equal bb-count's counter for the same function. *)
let check_mode (m : mutatee) first mode (o : observed) =
  check (o.o_stop = m.m_stop) "%s/%s stopped with %s, base %s" m.m_name
    (mode_name mode) (pp_stop o.o_stop) (pp_stop m.m_stop);
  check (m.m_self_timed || o.o_out = m.m_out) "%s/%s stdout %S, base %S"
    m.m_name (mode_name mode) o.o_out m.m_out;
  let key = (m.m_name, mode) in
  (match Hashtbl.find_opt first key with
  | None -> Hashtbl.replace first key o
  | Some o0 ->
      check (o0 = o) "%s/%s is not deterministic (%Ld cycles, first run %Ld)"
        m.m_name (mode_name mode) o.o_cycles o0.o_cycles);
  let other k = Hashtbl.find_opt first (m.m_name, k) in
  (match (mode, other Bb_count, other Bb_trace) with
  | (Bb_count | Bb_trace), Some c, Some t ->
      check
        (Int64.to_int c.o_counter = t.o_records)
        "%s: bb-trace recorded %d blocks, bb-count counted %Ld" m.m_name
        t.o_records c.o_counter
  | _ -> ());
  if mode = Sample then
    check (o.o_hottest = m.m_hottest && m.m_hottest <> None)
      "%s: profiler's hottest %s, TraceAPI's %s" m.m_name
      (Option.value o.o_hottest ~default:"-")
      (Option.value m.m_hottest ~default:"-")

(* The modes a mutatee runs under: sampling needs a run of at least one
   period to take any sample. *)
let modes_of (m : mutatee) =
  List.filter
    (fun mode -> mode <> Sample || Int64.compare m.m_cycles sample_period >= 0)
    modes

(* ------------------------------------------------------------------ *)
(* Paper section 4.3 on matmul_16x16_reps2                             *)
(* ------------------------------------------------------------------ *)

type paper = {
  p_pct : (mode * float) list;
      (** simulated overhead over base, from the mutatee's own clock *)
  p_obs : (mode * observed) list;
}

(* The §4.3 table and its TraceAPI/PerfAPI rows, exactly as bench/main
   computes them for BENCH_trace.json and BENCH_prof.json: matmul times
   its own call loop with clock_ns and prints the elapsed simulated ns. *)
let paper () : paper =
  let m =
    prepare_mutatee ~name:"matmul_16x16_reps2" ~target:"multiply"
      ~self_timed:true
      (Minicc.Programs.matmul ~n:16 ~reps:2)
  in
  let b = Core.open_image m.m_image in
  let first = Hashtbl.create 8 in
  let obs =
    List.map
      (fun mode ->
        let o =
          run_mode b ~target:m.m_target ~orig_bytes:m.m_bytes (Acc.create ())
            mode
        in
        check_mode m first mode o;
        (mode, o))
      modes
  in
  let ns mode = Int64.to_float (Int64.of_string (String.trim (List.assoc mode obs).o_out)) in
  let base = ns Base in
  {
    p_pct =
      List.filter_map
        (fun mode ->
          if mode = Base then None
          else Some (mode, 100.0 *. (ns mode -. base) /. base))
        modes;
    p_obs = obs;
  }

(* The committed trajectory points the paper metrics must reproduce. *)
let cross_check ~root (p : paper) : string list =
  let read file key =
    Json.to_num (Json.member key (Json.of_file (Filename.concat root file)))
  in
  List.filter_map
    (fun (mode, file, key) ->
      let want = Printf.sprintf "%.2f" (read file key)
      and got = Printf.sprintf "%.2f" (List.assoc mode p.p_pct) in
      if want = got then None
      else Some (Printf.sprintf "%s: %s%% here, %s%% in %s" key got want file))
    [
      (Bb_count, "BENCH_trace.json", "bb_count_overhead_pct");
      (Bb_trace, "BENCH_trace.json", "bb_trace_overhead_pct");
      (Mem_trace, "BENCH_trace.json", "mem_trace_overhead_pct");
      (Bb_count, "BENCH_prof.json", "bb_count_overhead_pct");
      (Sample, "BENCH_prof.json", "prof_10k_overhead_pct");
    ]

(* ------------------------------------------------------------------ *)
(* the in-process workloads                                            *)
(* ------------------------------------------------------------------ *)

(* The warm-up binaries of set-up come from a fixed seed, so set-up does
   the same work whatever the corpus seed. *)
let warmup_seed = 0L

(* Counter at every basic block of every function, 15 binaries of
   16-160 functions (five sizes, three binaries each): the site count
   drives plan, lint and verify, which grow superlinearly with it. *)
let rewrite_wide ~smoke ~seed =
  let sizes =
    if smoke then Corpus.size_grid ~lo:4 ~hi:10 ~count:3
    else Corpus.size_classes ~lo:16 ~hi:160 ~classes:5 ~per_class:3
  in
  let items =
    List.mapi
      (fun index n_funcs ->
        prepare_item ~targets:None (Corpus.program ~seed ~index ~n_funcs))
      sizes
  in
  let warmup =
    prepare_item ~targets:None (Corpus.program ~seed:warmup_seed ~index:(-1) ~n_funcs:12)
  in
  Workload.in_process
    ~setup:(fun () -> rewrite_op warmup (Acc.create ()))
    (Array.of_list (List.map rewrite_op items))

(* Counters at the entries of 8 seeded functions of 15 binaries with
   300-1,200 functions (five sizes, three binaries each): ELF, symtab
   and parse do the work, plan and verify almost none. *)
let rewrite_sparse ~smoke ~seed =
  let sizes =
    if smoke then Corpus.size_grid ~lo:40 ~hi:60 ~count:2
    else Corpus.size_classes ~lo:300 ~hi:1200 ~classes:5 ~per_class:3
  in
  let item ~seed index n_funcs =
    (* a stream apart from the programs' own, which use [index] *)
    let g = Check_api.Prng.of_seed_index ~seed ~index:(1_000_000 + index) in
    let rec draw acc =
      if List.length acc = 8 then acc
      else
        let t = Printf.sprintf "f%d" (Check_api.Prng.int g n_funcs) in
        draw (if List.mem t acc then acc else t :: acc)
    in
    let targets = draw [] in
    prepare_item ~targets:(Some targets) (Corpus.program ~seed ~index ~n_funcs)
  in
  let items = List.mapi (item ~seed) sizes in
  let warmup = item ~seed:warmup_seed (-1) 60 in
  Workload.in_process
    ~setup:(fun () -> rewrite_op warmup (Acc.create ()))
    (Array.of_list (List.map rewrite_op items))

(* Every mutatee under each of its modes, in a seeded order; binaries
   are parsed during set-up. *)
let instrumented_run ~smoke ~seed =
  let ms = mutatees ~smoke in
  let warmup =
    prepare_mutatee ~name:"warmup" ~target:"multiply" ~self_timed:true
      (Minicc.Programs.matmul ~n:4 ~reps:1)
  in
  let parsed = Hashtbl.create 8 in
  let first = Hashtbl.create 64 in
  let op (m : mutatee) mode acc =
    let b = Hashtbl.find parsed m.m_name in
    let o = run_mode b ~target:m.m_target ~orig_bytes:m.m_bytes acc mode in
    span "check" (fun () ->
        if mode <> Sample then Acc.add acc "sim.instret" (Int64.to_float o.o_instret);
        check_mode m first mode o)
  in
  let setup () =
    List.iter
      (fun m -> Hashtbl.replace parsed m.m_name (Core.open_image m.m_image))
      (warmup :: ms);
    let acc = Acc.create () in
    List.iter (fun mode -> op warmup mode acc) (modes_of warmup)
  in
  let pairs =
    List.concat_map (fun m -> List.map (fun mode -> (m, mode)) (modes_of m)) ms
    |> Array.of_list
  in
  let g = Check_api.Prng.of_seed_index ~seed ~index:0 in
  for i = Array.length pairs - 1 downto 1 do
    let j = Check_api.Prng.int g (i + 1) in
    let t = pairs.(i) in
    pairs.(i) <- pairs.(j);
    pairs.(j) <- t
  done;
  Workload.in_process ~setup (Array.map (fun (m, mode) -> op m mode) pairs)
