(* Benchmark harness: regenerates every table of the paper's evaluation
   (§4), plus the ablations listed in DESIGN.md.  Figures 1 and 2 are
   behavioural: examples/flows.ml and bin/components.exe.

   Default mode prints the §4.3 overhead table (x86/CISC-64 column and
   RISC-V column) from *simulated* elapsed time — the mutatee itself
   times its call loop with clock_gettime, exactly as the paper's
   application does, and prints the elapsed ns; the harness reads that.
   Absolute seconds are synthetic (simulator cycle model); the paper's
   observable — who has more overhead and by roughly what factor — is
   the reproduced quantity.  EXPERIMENTS.md records a paper-vs-measured
   comparison. *)

module J = Dyn_util.Jsonw

let matmul_n = 16
let matmul_reps = 2
let mutatee_name n reps = Printf.sprintf "matmul_%dx%d_reps%d" n n reps

(* ------------------------------------------------------------------ *)
(* RISC-V side                                                         *)
(* ------------------------------------------------------------------ *)

let rv_setup ?(n = matmul_n) ?(reps = matmul_reps) () : Core.binary =
  Core.open_image
    (Minicc.Driver.compile (Minicc.Programs.matmul ~n ~reps)).Minicc.Driver.image

(* run an image; the mutatee prints elapsed ns on stdout *)
let rv_elapsed_ns (img : Elfkit.Types.image) : int64 =
  let p = Rvsim.Loader.load img in
  match Rvsim.Loader.run p with
  | Rvsim.Machine.Exited 0, out -> Int64.of_string (String.trim out)
  | stop, _ ->
      Format.kasprintf failwith "riscv mutatee failed: %a" Rvsim.Machine.pp_stop
        stop

let rv_base (b : Core.binary) = rv_elapsed_ns (Core.image b)

let rv_instrumented ?use_dead_regs ~(points : [ `Entry | `Blocks ]) (b : Core.binary)
    : int64 * Patch_api.Rewriter.stats =
  let m = Core.create_mutator ?use_dead_regs b in
  let counter = Core.create_counter m "bench_counter" in
  (match points with
  | `Entry ->
      Core.insert m (Core.at_entry b "multiply") [ Codegen_api.Snippet.incr counter ]
  | `Blocks ->
      List.iter
        (fun pt -> Core.insert m pt [ Codegen_api.Snippet.incr counter ])
        (Core.at_blocks b "multiply"));
  let img = Core.rewrite m in
  (rv_elapsed_ns img, Core.stats m)

(* ------------------------------------------------------------------ *)
(* CISC-64 (x86 comparator) side                                       *)
(* ------------------------------------------------------------------ *)

let cisc_setup () =
  Cisc.Cdriver.compile (Minicc.Programs.matmul ~n:matmul_n ~reps:matmul_reps)

let cisc_counter_addr = 0x3F0000L

let cisc_elapsed_ns (m : Cisc.Emu.t) : int64 =
  match Cisc.Emu.run m with
  | Cisc.Emu.Exited 0 ->
      Int64.of_string (String.trim (Cisc.Emu.stdout_contents m))
  | stop -> Format.kasprintf failwith "cisc mutatee failed: %a" Cisc.Emu.pp_stop stop

let cisc_base (c : Cisc.Cdriver.compiled) = cisc_elapsed_ns (Cisc.Cdriver.load c)

let cisc_instrumented ?(preserve_flags = true) ~(points : [ `Entry | `Blocks ])
    (c : Cisc.Cdriver.compiled) : int64 =
  let b = Cisc.Instrument.of_compiled c in
  let inst = Cisc.Instrument.create ~preserve_flags b in
  let mult = List.assoc "multiply" c.Cisc.Cdriver.fn_addrs in
  (match points with
  | `Entry ->
      Cisc.Instrument.instrument_function_entry inst ~entry:mult
        ~counter:cisc_counter_addr
  | `Blocks ->
      Cisc.Instrument.instrument_all_blocks inst ~entry:mult
        ~counter:cisc_counter_addr);
  let m = Cisc.Cdriver.load c in
  Cisc.Instrument.apply inst m;
  cisc_elapsed_ns m

(* ------------------------------------------------------------------ *)
(* the §4.3 table                                                       *)
(* ------------------------------------------------------------------ *)

let seconds ns = Int64.to_float ns /. 1e9
let pct base v = 100.0 *. (seconds v -. seconds base) /. seconds base

let table_4_3 () =
  print_endline "== Paper 4.3: instrumentation overhead (simulated seconds) ==";
  Printf.printf "   mutatee: %dx%d double matmul, %d calls (paper: 100x100)\n"
    matmul_n matmul_n matmul_reps;
  let rv = rv_setup () in
  let ci = cisc_setup () in
  let rv0 = rv_base rv in
  let ci0 = cisc_base ci in
  let rv_fn, _ = rv_instrumented ~points:`Entry rv in
  let rv_bb, bb_stats = rv_instrumented ~points:`Blocks rv in
  let ci_fn = cisc_instrumented ~points:`Entry ci in
  let ci_bb = cisc_instrumented ~points:`Blocks ci in
  Printf.printf "\n%-16s | %12s %8s | %12s %8s\n" "" "x86 (CISC)" "" "RISC-V" "";
  Printf.printf "%s\n" (String.make 66 '-');
  Printf.printf "%-16s | %12.4f %8s | %12.4f %8s\n" "Base" (seconds ci0) ""
    (seconds rv0) "";
  Printf.printf "%-16s | %12.4f %7.2f%% | %12.4f %7.2f%%\n" "Function count"
    (seconds ci_fn) (pct ci0 ci_fn) (seconds rv_fn) (pct rv0 rv_fn);
  Printf.printf "%-16s | %12.4f %7.2f%% | %12.4f %7.2f%%\n" "BB count"
    (seconds ci_bb) (pct ci0 ci_bb) (seconds rv_bb) (pct rv0 rv_bb);
  Printf.printf
    "\n   paper reports:      x86: fn +1.4%%, BB +66.9%% | RISC-V: fn +0.8%%, BB +15.3%%\n";
  Printf.printf
    "   RISC-V BB points: %d (paper: 11 blocks in multiply); dead-reg allocations: %d, spills: %d\n"
    bb_stats.Patch_api.Rewriter.n_points bb_stats.Patch_api.Rewriter.n_dead_alloc
    bb_stats.Patch_api.Rewriter.n_spilled

(* ------------------------------------------------------------------ *)
(* TraceAPI: tracing overhead (bb-count vs bb-trace vs mem-trace)       *)
(* ------------------------------------------------------------------ *)

(* Run matmul with TraceAPI points planted in multiply; the mutatee
   still times its own call loop, so the simulated elapsed ns includes
   the record stores, the overflow checks and the flush syscalls. *)
let rv_traced (b : Core.binary) (opts : Trace_api.Tracer.opts) :
    int64 * int * int =
  let m = Core.create_mutator b in
  let ring = Trace_api.Ring.create m.Core.rw ~capacity:1024 in
  let _ =
    Trace_api.Tracer.instrument m.Core.rw b.Core.cfg ~ring
      ~funcs:[ "multiply" ] opts
  in
  match Trace_api.Sink.run ring (Core.rewrite m) with
  | sink, Rvsim.Machine.Exited 0, out ->
      ( Int64.of_string (String.trim out),
        Trace_api.Sink.n_records sink,
        Trace_api.Sink.flushes sink )
  | _, stop, _ ->
      Format.kasprintf failwith "traced mutatee failed: %a"
        Rvsim.Machine.pp_stop stop

let trace_overhead ?(json = "BENCH_trace.json") () =
  print_endline "\n== TraceAPI: tracing overhead (simulated seconds) ==";
  let rv = rv_setup () in
  let base = rv_base rv in
  let bb_count, _ = rv_instrumented ~points:`Blocks rv in
  let bb_trace, bb_records, bb_flushes =
    rv_traced rv Trace_api.Tracer.coverage_only
  in
  let mem_trace, mem_records, mem_flushes =
    rv_traced rv Trace_api.Tracer.mem_only
  in
  Printf.printf "   %-12s %12s %9s %10s %8s\n" "mode" "seconds" "overhead"
    "records" "flushes";
  Printf.printf "   %-12s %12.4f %9s %10s %8s\n" "base" (seconds base) "" "" "";
  Printf.printf "   %-12s %12.4f %8.2f%% %10s %8s\n" "bb-count"
    (seconds bb_count) (pct base bb_count) "" "";
  Printf.printf "   %-12s %12.4f %8.2f%% %10d %8d\n" "bb-trace"
    (seconds bb_trace) (pct base bb_trace) bb_records bb_flushes;
  Printf.printf "   %-12s %12.4f %8.2f%% %10d %8d\n" "mem-trace"
    (seconds mem_trace) (pct base mem_trace) mem_records mem_flushes;
  let ordered = bb_count <= bb_trace && bb_trace <= mem_trace in
  Printf.printf "   overhead ordering bb-count <= bb-trace <= mem-trace: %s\n"
    (if ordered then "ok" else "VIOLATED");
  (* machine-readable trajectory point for future PRs *)
  Gauge.write json
    (J.Obj
       [
         ("mutatee", J.String (mutatee_name matmul_n matmul_reps));
         ("ring_capacity", J.Int 1024L);
         ("base_ns", J.Int base);
         ("bb_count_ns", J.Int bb_count);
         ("bb_trace_ns", J.Int bb_trace);
         ("mem_trace_ns", J.Int mem_trace);
         ("bb_count_overhead_pct", J.fixed ~digits:2 (pct base bb_count));
         ("bb_trace_overhead_pct", J.fixed ~digits:2 (pct base bb_trace));
         ("mem_trace_overhead_pct", J.fixed ~digits:2 (pct base mem_trace));
         ("bb_trace_records", Gauge.int bb_records);
         ("bb_trace_flushes", Gauge.int bb_flushes);
         ("mem_trace_records", Gauge.int mem_records);
         ("mem_trace_flushes", Gauge.int mem_flushes);
         ("ordering_ok", J.Bool ordered);
       ])

(* ------------------------------------------------------------------ *)
(* PerfAPI: sampling profiler overhead vs instrumentation              *)
(* ------------------------------------------------------------------ *)

(* The observability trade-off: the sampling profiler runs the
   *original* binary and pays only a per-sample interrupt+unwind cost
   (sample_cost simulated cycles), so its overhead must land far below
   even the cheapest instrumentation (bb-count).  The mutatee times its
   own call loop, as in every other row of the evaluation. *)
let prof_overhead ?(smoke = false) ?(json = "BENCH_prof.json") () =
  print_endline "\n== PerfAPI: sampling profiler overhead (simulated seconds) ==";
  let n = if smoke then 8 else matmul_n in
  let reps = if smoke then 1 else matmul_reps in
  let setup = rv_setup ~n ~reps () in
  let base = rv_base setup in
  let bb_count, _ = rv_instrumented ~points:`Blocks setup in
  let profiled period =
    let config =
      {
        Perf_api.Profiler.default_config with
        Perf_api.Profiler.period = Int64.of_int period;
        keep_samples = false;
      }
    in
    let r = Perf_api.Profiler.profile ~config setup in
    match r.Perf_api.Profiler.r_stop with
    | Rvsim.Machine.Exited 0 ->
        (Int64.of_string (String.trim r.Perf_api.Profiler.r_stdout), r)
    | stop ->
        Format.kasprintf failwith "profiled mutatee failed: %a"
          Rvsim.Machine.pp_stop stop
  in
  let prof_10k, r_10k = profiled 10_000 in
  let prof_1k, r_1k = profiled 1_000 in
  Printf.printf "   %-22s %12s %9s %9s\n" "mode" "seconds" "overhead" "samples";
  Printf.printf "   %-22s %12.4f %9s %9s\n" "base" (seconds base) "" "";
  Printf.printf "   %-22s %12.4f %8.2f%% %9s\n" "bb-count (instrum.)"
    (seconds bb_count) (pct base bb_count) "";
  Printf.printf "   %-22s %12.4f %8.2f%% %9d\n" "sampling @10k cycles"
    (seconds prof_10k) (pct base prof_10k) r_10k.Perf_api.Profiler.r_n_samples;
  Printf.printf "   %-22s %12.4f %8.2f%% %9d\n" "sampling @1k cycles"
    (seconds prof_1k) (pct base prof_1k) r_1k.Perf_api.Profiler.r_n_samples;
  let below = pct base prof_10k < pct base bb_count in
  Printf.printf "   sampling @10k below bb-count instrumentation: %s\n"
    (if below then "ok" else "VIOLATED");
  (* cross-check the headline claim: sampling and tracing agree on the
     hottest function *)
  let v = Perf_api.Validate.validate setup in
  Format.printf "   %a@." Perf_api.Validate.pp v;
  let hottest =
    match v.Perf_api.Validate.v_prof_hottest with Some f -> f | None -> "?"
  in
  Gauge.write json
    (J.Obj
       [
         ("mutatee", J.String (mutatee_name n reps));
         ( "sample_cost_cycles",
           Gauge.int Perf_api.Profiler.default_config.Perf_api.Profiler.sample_cost );
         ("base_ns", J.Int base);
         ("bb_count_ns", J.Int bb_count);
         ("bb_count_overhead_pct", J.fixed ~digits:2 (pct base bb_count));
         ("prof_10k_ns", J.Int prof_10k);
         ("prof_10k_overhead_pct", J.fixed ~digits:2 (pct base prof_10k));
         ("prof_10k_samples", Gauge.int r_10k.Perf_api.Profiler.r_n_samples);
         ("prof_1k_ns", J.Int prof_1k);
         ("prof_1k_overhead_pct", J.fixed ~digits:2 (pct base prof_1k));
         ("prof_1k_samples", Gauge.int r_1k.Perf_api.Profiler.r_n_samples);
         ("hottest", J.String hottest);
         ("trace_agreement", J.Bool v.Perf_api.Validate.v_agree);
         ("sampling_below_bb_count", J.Bool below);
       ])

(* ------------------------------------------------------------------ *)
(* ablation: the dead-register optimization (paper 4.3's explanation)   *)
(* ------------------------------------------------------------------ *)

let ablation_dead_regs () =
  print_endline "\n== Ablation: dead-register allocation (RISC-V BB count) ==";
  let rv = rv_setup () in
  let base = rv_base rv in
  let with_opt, s1 = rv_instrumented ~use_dead_regs:true ~points:`Blocks rv in
  let without, s2 = rv_instrumented ~use_dead_regs:false ~points:`Blocks rv in
  Printf.printf "   base                       %.4fs\n" (seconds base);
  Printf.printf "   with dead registers        %.4fs  (+%.1f%%)  [%d dead-alloc / %d spilled]\n"
    (seconds with_opt) (pct base with_opt) s1.Patch_api.Rewriter.n_dead_alloc
    s1.Patch_api.Rewriter.n_spilled;
  Printf.printf "   spill everything (old x86) %.4fs  (+%.1f%%)  [%d dead-alloc / %d spilled]\n"
    (seconds without) (pct base without) s2.Patch_api.Rewriter.n_dead_alloc
    s2.Patch_api.Rewriter.n_spilled;
  print_endline
    "   (the paper attributes RISC-V's lower overhead to this optimization)"

(* and the CISC mirror: what if x86 had flag-liveness? *)
let ablation_cisc_flags () =
  print_endline "\n== Ablation: x86 flag save/restore around INC [abs] ==";
  let ci = cisc_setup () in
  let base = cisc_base ci in
  let naive = cisc_instrumented ~preserve_flags:true ~points:`Blocks ci in
  let opt = cisc_instrumented ~preserve_flags:false ~points:`Blocks ci in
  Printf.printf "   base                      %.4fs\n" (seconds base);
  Printf.printf "   PUSHF/POPF (current x86)  %.4fs  (+%.1f%%)\n" (seconds naive)
    (pct base naive);
  Printf.printf "   flags-dead assumption     %.4fs  (+%.1f%%)\n" (seconds opt)
    (pct base opt)

(* ------------------------------------------------------------------ *)
(* ablation: jump-reachability strategies (paper 3.1.2)                 *)
(* ------------------------------------------------------------------ *)

let jump_strategy_mutatee ~tiny =
  (* main loops calling a target function; tiny = single c.ret (2 bytes) *)
  let open Riscv in
  let open Riscv.Asm in
  let target_body =
    if tiny then
      let hw = Option.get (Encode.compress Build.ret) in
      let bts = Bytes.create 2 in
      Bytes.set_uint16_le bts 0 hw;
      [ Raw (Bytes.to_string bts) ]
    else [ Insn (Build.addi Reg.a0 Reg.a0 1); Insn Build.ret ]
  in
  [
    Label "main";
    Li (Reg.s0, 200_000L);
    Label "loop";
    Call_l "target";
    Insn (Build.addi Reg.s0 Reg.s0 (-1));
    Br (Op.BNE, Reg.s0, Reg.zero, "loop");
    Insn (Build.addi Reg.a0 Reg.zero 0);
    Insn (Build.addi Reg.a7 Reg.zero 93);
    Insn Build.ecall;
    Label "target";
  ]
  @ target_body

let run_cycles img =
  let p = Rvsim.Loader.load img in
  match Rvsim.Loader.run p with
  | Rvsim.Machine.Exited 0, _ -> p.Rvsim.Loader.machine.Rvsim.Machine.cycles
  | stop, _ ->
      Format.kasprintf failwith "mutatee failed: %a" Rvsim.Machine.pp_stop stop

let build_jump_mutatee ~tiny =
  let open Riscv in
  let r = Asm.assemble ~base:0x10000L (jump_strategy_mutatee ~tiny) in
  let attrs =
    Elfkit.Attributes.section_of
      { Elfkit.Attributes.empty with arch = Some "rv64imafdc_zicsr_zifencei" }
  in
  Elfkit.Types.image ~entry:0x10000L
    ~e_flags:Elfkit.Types.(ef_riscv_rvc lor ef_riscv_float_abi_double)
    ~symbols:
      [
        Elfkit.Types.symbol "main" 0x10000L ~sym_section:".text";
        Elfkit.Types.symbol "target" (Asm.label_addr r "target")
          ~sym_section:".text";
      ]
    [
      Elfkit.Types.section ".text" r.Asm.code ~s_addr:0x10000L
        ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr);
      attrs;
    ]

let ablation_jump_strategies () =
  print_endline "\n== Ablation: springboard strategies (paper 3.1.2) ==";
  let cases =
    [
      ("jal (near trampoline)", false, None);
      ("auipc+jalr (far trampoline)", false, Some 0x8000000L);
      ("trap (2-byte function, far)", true, Some 0x8000000L);
    ]
  in
  let base_img = build_jump_mutatee ~tiny:false in
  let base = run_cycles base_img in
  Printf.printf "   base (no instrumentation)      %12Ld cycles\n" base;
  List.iter
    (fun (name, tiny, tramp_base) ->
      let img = build_jump_mutatee ~tiny in
      let b = Core.open_image img in
      let m = Core.create_mutator ?tramp_base b in
      let counter = Core.create_counter m "c" in
      Core.insert m (Core.at_entry b "target") [ Codegen_api.Snippet.incr counter ];
      let img' = Core.rewrite m in
      let cycles = run_cycles img' in
      let strategies =
        (Core.stats m).Patch_api.Rewriter.strategies
        |> List.map (fun (_, s) -> Patch_api.Rewriter.strategy_name s)
        |> String.concat ","
      in
      Printf.printf "   %-30s %12Ld cycles  (+%.1f%%)  [%s]\n" name cycles
        (100.0 *. Int64.(to_float (sub cycles base)) /. Int64.to_float base)
        strategies)
    cases

(* ------------------------------------------------------------------ *)
(* parse speed (paper 2: "fast parallel parsing")                       *)
(* ------------------------------------------------------------------ *)

let synthetic_source n_funcs =
  let b = Buffer.create 4096 in
  for k = 0 to n_funcs - 1 do
    Buffer.add_string b
      (Printf.sprintf
         {|
int f%d(int x) {
  int i;
  int s;
  s = 0;
  for (i = 0; i < x; i = i + 1) {
    if (i %% 2 == 0) { s = s + i; } else { s = s - 1; }
  }
  return s;
}
|}
         k)
  done;
  Buffer.add_string b "int main() { return f0(3); }\n";
  Buffer.contents b

(* Parse MIPS (millions of instructions parsed per wall-clock second)
   for the domain-parallel engine against the frozen sequential
   reference parser, over synthetic minicc corpora; [Gauge] times them
   on the wall clock, since the N-domain side runs on several domains.
   Both numbers only count if the CFGs are structurally identical:
   reference vs 1 domain, reference vs N domains, and 1 vs N domains
   must all diff empty.
   The speedup on the largest corpus and the zero-difference identity
   are hard gates: a violation is returned to [main], which fails the
   bench (and `make bench-smoke` / `make check` with it) once every
   section has run.  On a single-core host the win
   is algorithmic — the engine's binary-search decode cache and
   incremental predecessor index against the reference's linear scans —
   while the N-domain run still drives the work-stealing fan-out end to
   end (task and steal counts land in the Dyn_obs registry). *)
let parse_bench ?(smoke = false) ?(json = "BENCH_parse.json") () =
  print_endline "\n== ParseAPI: parallel parse vs sequential reference ==";
  let sizes = if smoke then [ 100; 400 ] else [ 400; 2000; 8000 ] in
  let repeats = if smoke then 3 else 5 in
  let bar = if smoke then 1.5 else 2.5 in
  let nd = max 2 (Domain.recommended_domain_count ()) in
  let rows =
    List.map
      (fun n ->
        let img =
          (Minicc.Driver.compile (synthetic_source n)).Minicc.Driver.image
        in
        let st = Symtab.of_image img in
        let parsers =
          [|
            (fun () -> Parse_api.Refparser.parse st);
            (fun () -> Parse_api.Parser.parse ~domains:1 st);
            (fun () -> Parse_api.Parser.parse ~domains:nd st);
          |]
        in
        (* untimed: the CFGs for the identity gate, plus true
           [nd]-worker fan-out even where the engine's scheduling policy
           would clamp to the core count, so the identity gate always
           covers a genuinely parallel parse *)
        let ref_cfg = parsers.(0) () and cfg_1 = parsers.(1) () in
        let cfg_n = parsers.(2) () in
        let cfg_os = Parse_api.Parser.parse ~domains:nd ~oversubscribe:true st in
        let insns =
          Array.fold_left
            (fun acc (b : Parse_api.Cfg.block) ->
              acc + List.length b.Parse_api.Cfg.b_insns)
            0 ref_cfg.Parse_api.Cfg.blocks_sorted
        in
        let diffs =
          List.length (Parse_api.Cfg_diff.diff ref_cfg cfg_1)
          + List.length (Parse_api.Cfg_diff.diff ref_cfg cfg_n)
          + List.length (Parse_api.Cfg_diff.diff cfg_1 cfg_n)
          + List.length (Parse_api.Cfg_diff.diff ref_cfg cfg_os)
        in
        (* seconds per parse: reference, 1 domain, [nd] domains *)
        let times () =
          Gauge.best ~clock:Gauge.Wall ~rounds:repeats
            (Array.map (fun parse () () -> ignore (parse ()); 1.) parsers)
          |> Array.map (fun rate -> 1. /. rate)
        in
        (* only the largest corpus is gated *)
        let t =
          if n <> List.nth sizes (List.length sizes - 1) then times ()
          else Gauge.gated ~ok:(fun t -> t.(0) /. t.(2) >= bar) times
        in
        let mips t = float_of_int insns /. 1e6 /. t in
        Printf.printf
          "   %5d funcs %6d blocks %7d insns | seq ref %7.1f ms %5.2f MIPS | \
           1 dom %7.1f ms | %d dom %7.1f ms %5.2f MIPS | %5.2fx | %d diffs\n"
          n
          (Parse_api.Cfg.n_blocks ref_cfg)
          insns (t.(0) *. 1e3) (mips t.(0)) (t.(1) *. 1e3) nd (t.(2) *. 1e3)
          (mips t.(2)) (t.(0) /. t.(2)) diffs;
        let ms t = J.fixed ~digits:3 (t *. 1e3) in
        let mips t = J.fixed ~digits:2 (mips t) in
        ( t.(0) /. t.(2),
          diffs,
          J.Obj
            [
              ("funcs", Gauge.int n);
              ("insns", Gauge.int insns);
              ("seq_ref_ms", ms t.(0));
              ("domains1_ms", ms t.(1));
              ("domainsN_ms", ms t.(2));
              ("seq_ref_mips", mips t.(0));
              ("domainsN_mips", mips t.(2));
              ("speedup_vs_seq", J.fixed ~digits:2 (t.(0) /. t.(2)));
              ("cfg_diffs", Gauge.int diffs);
            ] ))
      sizes
  in
  let reg_count name =
    match Dyn_obs.Registry.find name with
    | Some { Dyn_obs.Registry.r_value = Dyn_obs.Registry.Counter_v v; _ } -> v
    | _ -> 0
  in
  Printf.printf "   scheduler: %d parse tasks, %d steals, %d rounds\n"
    (reg_count "parse.tasks") (reg_count "parse.steals")
    (reg_count "parse.rounds");
  let speedup, _, _ = List.nth rows (List.length rows - 1) in
  let total_diffs = List.fold_left (fun a (_, d, _) -> a + d) 0 rows in
  let speed_ok = speedup >= bar and ident_ok = total_diffs = 0 in
  Printf.printf "   largest-corpus speedup vs seq ref >= %.1fx: %s (%.2fx)\n"
    bar
    (if speed_ok then "ok" else "VIOLATED")
    speedup;
  Printf.printf "   CFG identity (ref vs 1 vs %d domains): %s (%d differences)\n"
    nd
    (if ident_ok then "ok" else "VIOLATED")
    total_diffs;
  Gauge.write json
    (J.Obj
       [
         ("domains", Gauge.int nd);
         ("speedup_bar", J.fixed ~digits:1 bar);
         ("corpora", J.List (List.map (fun (_, _, row) -> row) rows));
         ("parse_tasks", Gauge.int (reg_count "parse.tasks"));
         ("parse_steals", Gauge.int (reg_count "parse.steals"));
         ("speedup_vs_seq", J.fixed ~digits:2 speedup);
         ("speedup_ok", J.Bool speed_ok);
         ("cfg_identity_ok", J.Bool ident_ok);
       ]);
  [
    ( ident_ok,
      Printf.sprintf
        "parse gate: %d CFG differences between the reference and the \
         parallel parser"
        total_diffs );
    ( speed_ok,
      Printf.sprintf "parse gate: largest-corpus speedup %.2fx below the %.1fx bar"
        speedup bar );
  ]

(* ------------------------------------------------------------------ *)
(* static rewrite scaling                                                *)
(* ------------------------------------------------------------------ *)

(* Host time of the three per-site layers of a static rewrite, on two
   seeded corpora 4x apart whose [main] calls every function (so [main]
   is one long chain of call blocks): liveness over every function,
   [Rewriter.plan] with a counter at every block, and the structural
   [Verifier.verify] of the result.  Timed by [Gauge] in process CPU
   time, best of 5, setup untimed, all six size-layer sides interleaved
   so that both sizes see the same host noise.  A liveness sample is 8
   passes: one pass over 80 functions takes about 1 ms, and timed once
   its 320/80 ratio swung from 3.1x to 6.3x between runs of one build.
   A hard gate: each time ratio must stay within 1.5x the block ratio,
   so a superlinear term in any layer fails the bench (and `make
   bench-smoke` / `make check` with it) once every section has run. *)
let rewrite_scaling () =
  print_endline "\n== Static rewrite scaling: liveness, plan, verify ==";
  let module Rw = Patch_api.Rewriter in
  let slack = 1.5 and repeats = 5 in
  let side ?(passes = 1) setup run () =
    let x = setup () in
    fun () ->
      for _ = 1 to passes do
        ignore (Sys.opaque_identity (run x))
      done;
      float_of_int passes
  in
  (* one size: its block count and a side per layer *)
  let corpus n_funcs =
    let st = Symtab.of_image (Check_api.Corpus.image ~seed:1L ~index:0 ~n_funcs) in
    let cfg = Parse_api.Parser.parse ~domains:1 st in
    let funcs = Parse_api.Cfg.functions cfg in
    let session () =
      let rw = Rw.create st cfg in
      let c = Rw.allocate_var rw "c" 8 in
      List.iter
        (fun f ->
          List.iter
            (fun p -> Rw.insert rw p [ Codegen_api.Snippet.incr c ])
            (Patch_api.Point.block_entries cfg f))
        funcs;
      rw
    in
    ( n_funcs,
      Parse_api.Cfg.n_blocks cfg,
      [|
        side ~passes:8 ignore (fun () ->
            List.map (Dataflow_api.Liveness.analyze cfg) funcs);
        side session Rw.plan;
        side
          (fun () ->
            let rw = session () in
            let img = Rw.apply_to_image rw (Rw.plan rw) in
            (Option.get (Rw.manifest rw), img))
          (fun (manifest, rewritten) ->
            Lint_api.Verifier.verify ~orig:st cfg ~manifest ~rewritten);
      |] )
  in
  let sizes = [| corpus 80; corpus 320 |] in
  let blocks i = match sizes.(i) with _, b, _ -> float_of_int b in
  let sides i = match sizes.(i) with _, _, s -> s in
  let block_ratio = blocks 1 /. blocks 0 in
  let bound = slack *. block_ratio in
  let layers = [| "liveness"; "plan"; "verify" |] in
  (* the 320/80 time ratio per layer *)
  let measure () =
    let rates =
      Gauge.best ~clock:Gauge.Cpu ~rounds:repeats
        (Array.append (sides 0) (sides 1))
    in
    let ms i j = 1e3 /. rates.((3 * i) + j) in
    Array.iteri
      (fun i (n_funcs, blocks, _) ->
        Printf.printf
          "   %4d funcs %5d blocks | liveness %7.2f ms | plan %7.2f ms | \
           verify %7.2f ms\n"
          n_funcs blocks (ms i 0) (ms i 1) (ms i 2))
      sizes;
    let ratios = Array.init 3 (fun j -> ms 1 j /. ms 0 j) in
    Printf.printf
      "   ratio 320/80: blocks %.2fx | liveness %.2fx | plan %.2fx | verify \
       %.2fx (bound %.2fx)\n"
      block_ratio ratios.(0) ratios.(1) ratios.(2) bound;
    ratios
  in
  let ratios = Gauge.gated ~ok:(Array.for_all (fun r -> r <= bound)) measure in
  if Array.for_all (fun r -> r <= bound) ratios then
    print_endline "   linear in the block count: ok";
  List.mapi
    (fun j r ->
      ( r <= bound,
        Printf.sprintf
          "rewrite-scaling gate: %s grew %.2fx for %.2fx the blocks (bound %.2fx)"
          layers.(j) r block_ratio bound ))
    (Array.to_list ratios)

(* ------------------------------------------------------------------ *)
(* rvcheck lockstep throughput                                         *)
(* ------------------------------------------------------------------ *)

(* Differential-oracle throughput: fuzzed cases checked per second with
   rvsim and the Sail IR evaluator in lockstep.  A trajectory point for
   the correctness harness itself — if a semantics change makes the
   oracle an order of magnitude slower, the fixed fuzz budget in `make
   fuzz-smoke` quietly stops covering the ISA. *)
let lockstep_throughput ?(runs = 5) ?(count = 50_000) () =
  print_endline "\n== rvcheck lockstep throughput ==";
  let open Check_api in
  let last = ref None in
  let rate =
    Gauge.best ~clock:Gauge.Cpu ~rounds:runs
      [|
        (fun () () ->
          let s = Diffkit.sweep Oracle.leg (Oracle.cases ~seed:1L ~count) in
          last := Some s;
          float_of_int s.Diffkit.cases);
      |]
  in
  let s = Option.get !last in
  Printf.printf "   %d cases: best of %d runs %.0f cases/s\n" s.Diffkit.cases runs
    rate.(0);
  Printf.printf
    "   %d agree, %d agreed faults, %d diverged; %d opcodes, %.1f%% compressed\n"
    (Diffkit.count s "agree") (Diffkit.count s "agree-fault") s.Diffkit.failed
    (Diffkit.distinct s "op")
    (100. *. float_of_int (Diffkit.count s "compressed") /. float_of_int s.Diffkit.cases);
  if s.Diffkit.failed > 0 then Format.printf "%a" (Diffkit.pp_summary ~verbose:false) s

(* ------------------------------------------------------------------ *)
(* rvsim throughput: superblock engine vs per-instruction interpreter   *)
(* ------------------------------------------------------------------ *)

(* Host-side MIPS (millions of simulated instructions retired per
   CPU second, timed by [Gauge]) for the two execution engines,
   trace-off and trace-on.  Trace-on measures the fused path: the hook is compiled
   into the cached blocks, so the engine must stay well ahead of the
   interpreter.  Every number is paired with the engine differential
   (Check_api.Enginediff through Check_api.Diffkit), which must report zero divergences for the
   speedup to count; both speedups and the differential are hard gates
   (the bench fails, and `make bench-smoke` / `make check` with it, on
   violation, once every section has run). *)
let sim_throughput ?(smoke = false) ?(json = "BENCH_sim.json") () =
  print_endline "\n== rvsim throughput: superblock engine vs interpreter ==";
  let n = if smoke then 10 else 24 in
  let reps = if smoke then 1 else 2 in
  Printf.printf "   mutatee: %dx%d double matmul, %d reps\n" n n reps;
  let img =
    (Minicc.Driver.compile (Minicc.Programs.matmul ~n ~reps)).Minicc.Driver.image
  in
  let min_time = if smoke then 0.05 else 0.4 in
  let side (engine, traced) () =
    let p = Rvsim.Loader.load ~engine img in
    if traced then
      p.Rvsim.Loader.machine.Rvsim.Machine.trace <- Some (fun _ _ -> ());
    fun () ->
      (match Rvsim.Loader.run p with
      | Rvsim.Machine.Exited 0, _ -> ()
      | s, _ ->
          Format.kasprintf failwith "sim-throughput mutatee failed: %a"
            Rvsim.Machine.pp_stop s);
      Int64.to_float p.Rvsim.Loader.machine.Rvsim.Machine.instret /. 1e6
  in
  (* smoke configs run a tiny mutatee where translation overhead eats a
     bigger slice, so they gate against relaxed bars; the committed
     full-config numbers use the real ones *)
  let off_bar = if smoke then 2.0 else 3.0 in
  let on_bar = if smoke then 1.2 else 2.0 in
  (* MIPS of interpreter and engine, trace-off then trace-on; each
     sample repeats whole runs until [min_time] seconds accumulate, so
     the smoke numbers are not pure noise *)
  let mips =
    Gauge.gated
      ~ok:(fun m -> m.(1) /. m.(0) >= off_bar && m.(3) /. m.(2) >= on_bar)
      (fun () ->
        Gauge.best ~clock:Gauge.Cpu ~min_time ~rounds:3
          (Array.map side
             Rvsim.Machine.
               [|
                 (Eng_interp, false); (Eng_block, false); (Eng_interp, true);
                 (Eng_block, true);
               |]))
  in
  let interp_off = mips.(0) and block_off = mips.(1) in
  let interp_on = mips.(2) and block_on = mips.(3) in
  (* the block cache's counters for one trace-off engine run: registry
     deltas across it *)
  let count name = Dyn_obs.Registry.(counter_value (counter name)) in
  let t0 = count "sim.bb.translated" and c0 = count "sim.bb.chain_hits"
  and f0 = count "sim.icache.flushes" in
  ignore (side (Rvsim.Machine.Eng_block, false) () ());
  let translated = count "sim.bb.translated" - t0
  and chain_hits = count "sim.bb.chain_hits" - c0
  and flushes = count "sim.icache.flushes" - f0 in
  let speedup_off = block_off /. interp_off in
  let speedup_on = block_on /. interp_on in
  Printf.printf "   %-12s %12s %12s\n" "engine" "trace-off" "trace-on";
  Printf.printf "   %-12s %9.1f MIPS %9.1f MIPS\n" "interpreter" interp_off
    interp_on;
  Printf.printf "   %-12s %9.1f MIPS %9.1f MIPS\n" "superblock" block_off block_on;
  Printf.printf "   %-12s %11.2fx %11.2fx\n" "speedup" speedup_off speedup_on;
  Printf.printf
    "   block cache: %d blocks translated, %d chain hits, %d flushes\n"
    translated chain_hits flushes;
  let off_ok = speedup_off >= off_bar and on_ok = speedup_on >= on_bar in
  Printf.printf "   trace-off speedup >= %.1fx: %s\n" off_bar
    (if off_ok then "ok" else "VIOLATED");
  Printf.printf "   trace-on  speedup >= %.1fx: %s\n" on_bar
    (if on_ok then "ok" else "VIOLATED");
  (* the speedup only counts if the engines are indistinguishable *)
  let diff =
    Check_api.Diffkit.sweep Check_api.Enginediff.leg
      (Check_api.Enginediff.cases
         ~mutatees:
           (if smoke then [ "fib"; "calls" ] else List.map fst Minicc.Programs.builtins)
         ~seeds:(if smoke then 10 else 25)
         ())
  in
  Format.printf "   %a" (Check_api.Diffkit.pp_summary ~verbose:false) diff;
  Gauge.write json
    (J.Obj
       [
         ("mutatee", J.String (mutatee_name n reps));
         ("interp_mips", J.fixed ~digits:2 interp_off);
         ("block_mips", J.fixed ~digits:2 block_off);
         ("interp_trace_mips", J.fixed ~digits:2 interp_on);
         ("block_trace_mips", J.fixed ~digits:2 block_on);
         ("speedup_trace_off", J.fixed ~digits:2 speedup_off);
         ("speedup_trace_on", J.fixed ~digits:2 speedup_on);
         ("blocks_translated", Gauge.int translated);
         ("chain_hits", Gauge.int chain_hits);
         ("flushes", Gauge.int flushes);
         ("engine_diff_runs", Gauge.int diff.Check_api.Diffkit.cases);
         ("engine_diff_divergences", Gauge.int diff.Check_api.Diffkit.failed);
         ("speedup_3x_ok", J.Bool off_ok);
         ("speedup_trace_on_ok", J.Bool on_ok);
       ]);
  [
    ( diff.Check_api.Diffkit.failed = 0,
      "sim-throughput gate: engine differential diverged" );
    ( off_ok,
      Printf.sprintf "sim-throughput gate: trace-off speedup %.2fx below the %.1fx bar"
        speedup_off off_bar );
    ( on_ok,
      Printf.sprintf "sim-throughput gate: trace-on speedup %.2fx below the %.1fx bar"
        speedup_on on_bar );
  ]

(* ------------------------------------------------------------------ *)

(* Every selected section runs; a gated section returns its gates as
   (passed, message) pairs, and the bench exits non-zero once at the
   end, naming every gate that failed. *)
let () =
  let flag f = Array.exists (( = ) f) Sys.argv in
  let failed = ref [] in
  let gate results =
    failed := !failed @ List.filter_map (fun (ok, msg) -> if ok then None else Some msg) results
  in
  if flag "--smoke" then begin
    (* reduced run for `make check`: exercises the instrumentation,
       tracing and profiling paths end-to-end without clobbering the
       committed BENCH_*.json trajectory points *)
    trace_overhead ~json:"BENCH_trace.smoke.json" ();
    prof_overhead ~smoke:true ~json:"BENCH_prof.smoke.json" ();
    lockstep_throughput ~runs:3 ~count:4_000 ();
    gate (sim_throughput ~smoke:true ~json:"BENCH_sim.smoke.json" ());
    gate (parse_bench ~smoke:true ~json:"BENCH_parse.smoke.json" ());
    gate (rewrite_scaling ());
    gate (Served.bench ~smoke:true ~json:"BENCH_served.smoke.json" ());
    print_endline "\nbench: smoke done"
  end
  else if flag "--served" then
    (* full-config rvserved section alone (rewrites BENCH_served.json) *)
    gate (Served.bench ())
  else if flag "--sim" then
    (* full-config sim-throughput section alone (rewrites BENCH_sim.json) *)
    gate (sim_throughput ())
  else if flag "--parse" then
    (* full-config parallel-parse section alone (rewrites BENCH_parse.json) *)
    gate (parse_bench ())
  else begin
    table_4_3 ();
    trace_overhead ();
    prof_overhead ();
    gate (sim_throughput ());
    ablation_dead_regs ();
    ablation_cisc_flags ();
    ablation_jump_strategies ();
    gate (parse_bench ());
    gate (rewrite_scaling ());
    lockstep_throughput ();
    gate (Served.bench ());
    print_endline "\nbench: done"
  end;
  if !failed <> [] then begin
    prerr_endline "bench: failed gates:";
    List.iter (fun msg -> prerr_endline ("  " ^ msg)) !failed;
    exit 1
  end
