(* TraceAPI end-to-end tests: plant trace points -> rewrite -> run under
   the simulator with a host-side sink -> analyze the stream.  The
   anchor checks are exactness against an *uninstrumented* run of the
   same binary (coverage, execution counts, memory-op counts observed
   through the raw machine trace hook) and the ring's overflow/flush
   protocol. *)

open Parse_api
open Codegen_api
open Patch_api
open Trace_api

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let check64 = Alcotest.(check int64)

let exit_code = function
  | Rvsim.Machine.Exited c -> c
  | s -> Alcotest.failf "expected exit, got %a" Rvsim.Machine.pp_stop s

(* Compile a minicc source, plant trace points, rewrite, run with a
   sink attached; returns the analyzed binary and the drained sink. *)
let run_traced ?(capacity = 256) ?use_dead_regs ?funcs ~opts src =
  let compiled = Minicc.Driver.compile src in
  let binary = Core.open_image compiled.Minicc.Driver.image in
  let rw = Rewriter.create ?use_dead_regs binary.Core.symtab binary.Core.cfg in
  let ring = Ring.create rw ~capacity in
  let n_points = Tracer.instrument rw binary.Core.cfg ~ring ?funcs opts in
  let sink, stop, out = Sink.run ring (Rewriter.rewrite rw) in
  (binary, sink, stop, out, n_points)

(* Ground truth: run the *uninstrumented* image under the raw machine
   trace hook and count how often each pc executed. *)
let pc_counts (binary : Core.binary) =
  let p = Rvsim.Loader.load (Core.image binary) in
  let counts = Hashtbl.create 1024 in
  p.Rvsim.Loader.machine.Rvsim.Machine.trace <-
    Some
      (fun pc _ ->
        Hashtbl.replace counts pc
          (1 + Option.value (Hashtbl.find_opt counts pc) ~default:0));
  let _ = Rvsim.Loader.run p in
  counts

let all_blocks (binary : Core.binary) =
  List.concat_map
    (fun f -> Cfg.blocks_of binary.Core.cfg f)
    (Cfg.functions binary.Core.cfg)

let cov_src =
  {|
int work(int x) {
  if (x > 3) { return x * 2; }
  return x + 1;
}
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 8; i = i + 1) { s = s + work(i); }
  print_int(s);
  return 0;
}
|}

(* --- record format ---------------------------------------------------------- *)

let test_record_roundtrip () =
  let rs =
    [
      { Record.kind = Record.Block; addr = 0x10A00L; value = 0L; cycles = 7L };
      { Record.kind = Record.Call; addr = 0x10B00L; value = 0x10A10L; cycles = 9L };
      { Record.kind = Record.Mem_write; addr = 0x20000L; value = 8L; cycles = 12L };
      { Record.kind = Record.Marker; addr = 42L; value = -1L; cycles = 20L };
    ]
  in
  let stream =
    String.concat "" (List.map (fun r -> Bytes.to_string (Record.encode r)) rs)
  in
  checkb "roundtrip" true (Record.decode_all stream = rs);
  checki "record size" 32 Record.size;
  (* a corrupt kind code ends the stream instead of producing garbage *)
  let bad = stream ^ String.make Record.size '\xFF' in
  checki "corrupt tail dropped" (List.length rs)
    (List.length (Record.decode_all bad))

(* --- basic-block coverage exactness ----------------------------------------- *)

let test_coverage_exact () =
  let binary, sink, stop, _, n_points =
    run_traced ~opts:Tracer.coverage_only cov_src
  in
  checki "mutatee exit unchanged" 0 (exit_code stop);
  checkb "instrumented some points" true (n_points > 0);
  let counts = pc_counts binary in
  let expected_cov =
    all_blocks binary
    |> List.filter (fun (b : Cfg.block) -> Hashtbl.mem counts b.Cfg.b_start)
    |> List.map (fun b -> b.Cfg.b_start)
    |> List.sort_uniq Int64.compare
  in
  let records = Sink.records sink in
  checkb "coverage = exactly the executed blocks" true
    (Analyze.coverage records = expected_cov);
  (* stronger: per-block execution counts match the uninstrumented run *)
  List.iter
    (fun (addr, n) ->
      checki
        (Printf.sprintf "block 0x%Lx count" addr)
        (Option.value (Hashtbl.find_opt counts addr) ~default:0)
        n)
    (Analyze.block_counts records);
  (* the stream is in program order: timestamps never go backwards *)
  let rec monotonic = function
    | a :: (b :: _ as rest) ->
        Int64.compare a.Record.cycles b.Record.cycles <= 0 && monotonic rest
    | _ -> true
  in
  checkb "timestamps nondecreasing" true (monotonic records)

(* --- ring overflow and flush protocol --------------------------------------- *)

let test_ring_overflow_flush () =
  let src =
    {|
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 100; i = i + 1) { s = s + i; }
  print_int(s);
  return 0;
}
|}
  in
  let capacity = 16 in
  let binary, sink, stop, out, _ =
    run_traced ~capacity ~funcs:[ "main" ] ~opts:Tracer.coverage_only src
  in
  checki "exit unchanged" 0 (exit_code stop);
  checkb "stdout unchanged" true (String.trim out = "4950");
  let records = Sink.records sink in
  let n = List.length records in
  checkb "trace exceeds one buffer capacity" true (n > capacity);
  checkb "multiple overflow flushes serviced" true (Sink.flushes sink >= 2);
  (* every flush happened exactly at the full mark, plus one final drain *)
  checki "flush accounting" n
    ((Sink.flushes sink * capacity) + (n mod capacity));
  (* completeness: per-block counts equal the uninstrumented ground truth *)
  let counts = pc_counts binary in
  let main = Core.find_function binary "main" in
  let expected =
    Cfg.blocks_of binary.Core.cfg main
    |> List.map (fun (b : Cfg.block) ->
           (b.Cfg.b_start, Option.value (Hashtbl.find_opt counts b.Cfg.b_start) ~default:0))
    |> List.filter (fun (_, c) -> c > 0)
  in
  checkb "reassembled stream complete" true
    (Analyze.block_counts records = expected);
  (* in order: timestamps nondecreasing across flush boundaries *)
  let rec monotonic = function
    | a :: (b :: _ as rest) ->
        Int64.compare a.Record.cycles b.Record.cycles <= 0 && monotonic rest
    | _ -> true
  in
  checkb "stream in order" true (monotonic records)

(* The boundary case of the flush protocol: a run emitting *exactly*
   [capacity] records must trip exactly one overflow flush at the full
   mark and leave nothing for the final drain — emit stores the record,
   advances widx, then checks [widx - flushed >= capacity], so the
   capacity-th record both fits in the buffer and triggers the flush.
   One record past capacity must not trip a second one. *)
let test_ring_exact_capacity () =
  let capacity = 8 in
  let src n =
    Printf.sprintf
      {|
int one(int x) { return x + 1; }
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < %d; i = i + 1) { s = one(s); }
  print_int(s);
  return 0;
}
|}
      n
  in
  (* calibrate: how many records does one call to [one] emit? *)
  let _, probe, _, _, _ =
    run_traced ~capacity:64 ~funcs:[ "one" ] ~opts:Tracer.coverage_only (src 1)
  in
  let per_call = List.length (Sink.records probe) in
  checkb "per-call record count divides capacity" true
    (per_call > 0 && capacity mod per_call = 0);
  let calls = capacity / per_call in
  let _, sink, stop, out, _ =
    run_traced ~capacity ~funcs:[ "one" ] ~opts:Tracer.coverage_only (src calls)
  in
  checki "exit unchanged" 0 (exit_code stop);
  checkb "stdout unchanged" true (String.trim out = string_of_int calls);
  checki "records = capacity" capacity (List.length (Sink.records sink));
  checki "exactly one flush at the full mark" 1 (Sink.flushes sink);
  (* a little past capacity: the wrapped slots reuse the start of the
     buffer and the final drain carries the remainder *)
  let _, sink, _, _, _ =
    run_traced ~capacity ~funcs:[ "one" ] ~opts:Tracer.coverage_only
      (src (calls + 1))
  in
  let records = Sink.records sink in
  checki "records = capacity + one call" (capacity + per_call)
    (List.length records);
  checki "still exactly one overflow flush" 1 (Sink.flushes sink);
  (* nothing lost or duplicated across the wraparound *)
  let rec monotonic = function
    | a :: (b :: _ as rest) ->
        Int64.compare a.Record.cycles b.Record.cycles <= 0 && monotonic rest
    | _ -> true
  in
  checkb "stream in order across the wrap" true (monotonic records)

(* --- call-tree reconstruction + StackwalkerAPI cross-check ------------------- *)

let cross_src =
  {|
int leaf(int x) {
  int s;
  s = x;
  if (x > 0) { s = s + 1; }
  return s;
}
int mid(int x) { return leaf(x) + 2; }
int main() {
  print_int(mid(5));
  return 0;
}
|}

let test_call_tree_and_stackwalker () =
  let binary, sink, stop, _, _ =
    run_traced ~opts:Tracer.call_graph cross_src
  in
  checki "exit unchanged" 0 (exit_code stop);
  let records = Sink.records sink in
  let leaf = Core.find_function binary "leaf" in
  let mid = Core.find_function binary "mid" in
  (* the tree contains mid -> leaf with plausible timing *)
  let tree = Analyze.call_tree records in
  checkb "calls recorded" true (Analyze.n_calls tree > 0);
  let rec find_node addr nodes =
    List.find_map
      (fun (n : Analyze.call_node) ->
        if n.Analyze.cn_callee = addr then Some n
        else find_node addr n.Analyze.cn_children)
      nodes
  in
  let mid_node =
    match find_node mid.Cfg.f_entry tree with
    | Some n -> n
    | None -> Alcotest.fail "mid not in call tree"
  in
  checkb "leaf is a child of mid" true
    (List.exists
       (fun (n : Analyze.call_node) -> n.Analyze.cn_callee = leaf.Cfg.f_entry)
       mid_node.Analyze.cn_children);
  checkb "mid's span covers leaf's" true
    (List.for_all
       (fun (n : Analyze.call_node) ->
         Int64.compare mid_node.Analyze.cn_enter n.Analyze.cn_enter <= 0
         && Int64.compare n.Analyze.cn_exit mid_node.Analyze.cn_exit <= 0)
       mid_node.Analyze.cn_children);
  (* cross-check: the trace-derived stack at leaf's first activation
     matches a StackwalkerAPI walk of an uninstrumented process stopped
     at leaf's entry *)
  let first_leaf_call =
    List.find
      (fun r -> r.Record.kind = Record.Call && r.Record.addr = leaf.Cfg.f_entry)
      records
  in
  let trace_stack =
    Analyze.call_stack_at records ~cycle:first_leaf_call.Record.cycles
  in
  let name_of entry =
    List.find_map
      (fun (f : Cfg.func) ->
        if f.Cfg.f_entry = entry then Some f.Cfg.f_name else None)
      (Cfg.functions binary.Core.cfg)
  in
  let trace_names = List.filter_map (fun (c, _) -> name_of c) trace_stack in
  let proc = Core.launch (Core.image binary) in
  Proccontrol_api.Proccontrol.insert_breakpoint proc leaf.Cfg.f_entry;
  (match Core.continue_ proc with
  | Proccontrol_api.Proccontrol.Ev_breakpoint a ->
      check64 "stopped at leaf entry" leaf.Cfg.f_entry a
  | _ -> Alcotest.fail "expected to stop at leaf's entry");
  let frames = Core.walk_process binary proc in
  (* walker reports innermost first; reverse to outermost first *)
  let walker_names =
    List.rev
      (List.filter_map
         (fun (f : Stackwalker_api.Stackwalker.frame) ->
           f.Stackwalker_api.Stackwalker.fr_func)
         frames)
  in
  let is_suffix small big =
    let ls = List.length small and lb = List.length big in
    ls <= lb && List.filteri (fun i _ -> i >= lb - ls) big = small
  in
  checkb
    (Printf.sprintf "trace stack [%s] agrees with walker [%s]"
       (String.concat ";" trace_names)
       (String.concat ";" walker_names))
    true
    (trace_names <> [] && is_suffix trace_names walker_names)

(* --- memory-access tracing --------------------------------------------------- *)

let test_mem_trace_exact () =
  let binary, sink, stop, _, _ =
    run_traced ~funcs:[ "work" ] ~opts:Tracer.mem_only cov_src
  in
  checki "exit unchanged" 0 (exit_code stop);
  let records = Sink.records sink in
  (* expected: every executed load/store instruction of work, weighted
     by how often its pc ran in the uninstrumented binary *)
  let counts = pc_counts binary in
  let work = Core.find_function binary "work" in
  let expected_reads = ref 0 and expected_writes = ref 0 in
  List.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun (ins : Instruction.t) ->
          let op = ins.Instruction.insn.Riscv.Insn.op in
          let n =
            Option.value (Hashtbl.find_opt counts ins.Instruction.addr) ~default:0
          in
          if Riscv.Op.is_load op then expected_reads := !expected_reads + n
          else if Riscv.Op.is_store op then
            expected_writes := !expected_writes + n)
        b.Cfg.b_insns)
    (Cfg.blocks_of binary.Core.cfg work);
  let reads, writes = Analyze.mem_totals records in
  checki "reads exact" !expected_reads reads;
  checki "writes exact" !expected_writes writes;
  checkb "saw some traffic" true (reads + writes > 0);
  (* histogram conserves totals and buckets align *)
  let hist = Analyze.mem_histogram ~bucket:64 records in
  let hr, hw =
    List.fold_left (fun (r, w) (_, (br, bw)) -> (r + br, w + bw)) (0, 0) hist
  in
  checki "histogram reads" reads hr;
  checki "histogram writes" writes hw;
  checkb "buckets aligned" true
    (List.for_all (fun (b, _) -> Int64.rem b 64L = 0L) hist);
  (* effective addresses of stack traffic look like addresses, not junk *)
  checkb "addresses plausible" true
    (List.for_all
       (fun r ->
         match r.Record.kind with
         | Record.Mem_read | Record.Mem_write ->
             Int64.compare r.Record.addr 0x1000L > 0
         | _ -> true)
       records)

(* --- user markers and syscall transparency ----------------------------------- *)

let test_markers () =
  let compiled = Minicc.Driver.compile cov_src in
  let binary = Core.open_image compiled.Minicc.Driver.image in
  let rw = Rewriter.create binary.Core.symtab binary.Core.cfg in
  let ring = Ring.create rw ~capacity:32 in
  let work = Core.find_function binary "work" in
  (match Point.func_entry binary.Core.cfg work with
  | Some pt ->
      Tracer.plant_marker rw ~ring pt ~id:7L
        ~payload:(Snippet.Param 0) ()
  | None -> Alcotest.fail "no entry point for work");
  let sink, stop, out = Sink.run ring (Rewriter.rewrite rw) in
  checki "exit unchanged" 0 (exit_code stop);
  checkb "stdout unchanged" true (String.trim out <> "");
  let markers =
    List.filter (fun r -> r.Record.kind = Record.Marker) (Sink.records sink)
  in
  checki "one marker per work call" 8 (List.length markers);
  checkb "all carry the id" true
    (List.for_all (fun r -> r.Record.addr = 7L) markers);
  (* payload captured work's argument x = 0..7 in call order *)
  checkb "payloads are the arguments" true
    (List.map (fun r -> r.Record.value) markers
    = List.init 8 Int64.of_int)

(* A spilled snippet runs below its save frame; the effective addresses
   it records from sp must still be the mutatee's. *)
let test_mem_trace_spilled () =
  let words use_dead_regs =
    let _, sink, _, _, _ =
      run_traced ~use_dead_regs ~funcs:[ "work" ] ~opts:Tracer.mem_only cov_src
    in
    List.map (fun r -> (r.Record.kind, r.Record.addr, r.Record.value)) (Sink.records sink)
  in
  let dead = words true in
  checkb "saw some traffic" true (dead <> []);
  checkb "spilled records equal dead-register records" true (words false = dead)

(* --- pins: matmul's record streams ------------------------------------------ *)

(* matmul_16x16_reps2's [multiply] traced as rvbench's instrumented-run
   traces it (one 1024-record ring), with the retired-instruction count
   of the traced and of an uninstrumented run. *)
let matmul_multiply opts =
  let compiled = Minicc.Driver.compile (Minicc.Programs.matmul ~n:16 ~reps:2) in
  let binary = Core.open_image compiled.Minicc.Driver.image in
  let instret (p : Rvsim.Loader.process) = p.Rvsim.Loader.machine.Rvsim.Machine.instret in
  let p0 = Rvsim.Loader.load (Core.image binary) in
  ignore (Rvsim.Loader.run p0);
  let rw = Rewriter.create binary.Core.symtab binary.Core.cfg in
  let ring = Ring.create rw ~capacity:1024 in
  ignore (Tracer.instrument rw binary.Core.cfg ~ring ~funcs:[ "multiply" ] opts);
  let p = Rvsim.Loader.load (Rewriter.rewrite rw) in
  let sink = Sink.create ring in
  Sink.install sink p.Rvsim.Loader.os;
  ignore (Rvsim.Loader.run p);
  Sink.drain sink p.Rvsim.Loader.machine;
  (Sink.records sink, Int64.sub (instret p) (instret p0))

(* MD5 of every record's (kind, addr, value) words: what a change to the
   emitted snippet code must leave identical.  Taken before CodeGenAPI
   learned immediate forms, offset folding, branch fusion and value
   reuse. *)
let stream_digest recs =
  let b = Buffer.create (24 * List.length recs) in
  List.iter (fun r -> Buffer.add_subbytes b (Record.encode r) 0 24) recs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_stream_pins () =
  List.iter
    (fun (name, opts, n, digest) ->
      let recs, _ = matmul_multiply opts in
      checki (name ^ " records") n (List.length recs);
      Alcotest.(check string) (name ^ " (kind, addr, value) digest") digest (stream_digest recs);
      let rec monotone = function
        | a :: (b :: _ as rest) -> Int64.compare a.Record.cycles b.Record.cycles <= 0 && monotone rest
        | _ -> true
      in
      checkb (name ^ " cycle fields monotone") true (monotone recs))
    [
      ("coverage_only", Tracer.coverage_only, 18566, "e5ec5b64e1810e29dc8de5bb5dddc07f");
      ("mem_only", Tracer.mem_only, 121578, "333c458cf5bfb33b498ff9a117f689dd");
    ]

(* The per-record cost of mem-trace, in retired instructions over an
   uninstrumented run: a deterministic count, bounded by what the
   snippet code generator emits for one record. *)
let test_mem_record_cost () =
  let recs, added = matmul_multiply Tracer.mem_only in
  let per_record = Int64.to_float added /. float (List.length recs) in
  if per_record > 22.0 then
    Alcotest.failf "mem-trace retires %.2f instructions per record, bound 22" per_record

(* --- analyzer units on synthetic streams ------------------------------------- *)

let test_edge_profile () =
  let block a c = { Record.kind = Record.Block; addr = a; value = 0L; cycles = c } in
  (* path 1 -> 2 -> 1 -> 2 -> 3 *)
  let rs = [ block 1L 0L; block 2L 1L; block 1L 2L; block 2L 3L; block 3L 4L ] in
  let prof = Analyze.edge_profile rs in
  checki "edge (1,2) hottest" 2 (List.assoc (1L, 2L) prof);
  checki "edge (2,1)" 1 (List.assoc (2L, 1L) prof);
  checki "edge (2,3)" 1 (List.assoc (2L, 3L) prof);
  (match prof with
  | ((s, d), n) :: _ ->
      checkb "sorted hottest-first" true (s = 1L && d = 2L && n = 2)
  | [] -> Alcotest.fail "empty profile");
  checkb "hot path follows hottest edges" true
    (match Analyze.hot_path rs with
     | 1L :: 2L :: _ -> true
     | _ -> false)

let test_call_stack_replay () =
  let ev kind addr cycles =
    { Record.kind; addr; value = 0L; cycles }
  in
  let rs =
    [
      ev Record.Call 100L 1L;
      ev Record.Call 200L 2L;
      ev Record.Ret 200L 3L;
      ev Record.Call 300L 4L;
      ev Record.Ret 300L 5L;
      ev Record.Ret 100L 6L;
    ]
  in
  checkb "depth 2 inside nested call" true
    (List.map fst (Analyze.call_stack_at rs ~cycle:2L) = [ 100L; 200L ]);
  checkb "back to depth 1 after return" true
    (List.map fst (Analyze.call_stack_at rs ~cycle:3L) = [ 100L ]);
  checkb "empty after outermost return" true
    (Analyze.call_stack_at rs ~cycle:6L = []);
  let tree = Analyze.call_tree rs in
  checki "one root" 1 (List.length tree);
  checki "two children" 2
    (match tree with [ n ] -> List.length n.Analyze.cn_children | _ -> -1);
  checki "max depth" 2 (Analyze.max_depth tree)

let () =
  Alcotest.run "trace"
    [
      ( "record",
        [ Alcotest.test_case "roundtrip" `Quick test_record_roundtrip ] );
      ( "end-to-end",
        [
          Alcotest.test_case "coverage exact" `Quick test_coverage_exact;
          Alcotest.test_case "ring overflow flush" `Quick
            test_ring_overflow_flush;
          Alcotest.test_case "ring exact-capacity wraparound" `Quick
            test_ring_exact_capacity;
          Alcotest.test_case "call tree + stackwalker" `Quick
            test_call_tree_and_stackwalker;
          Alcotest.test_case "memory trace exact" `Quick test_mem_trace_exact;
          Alcotest.test_case "memory trace spilled" `Quick test_mem_trace_spilled;
          Alcotest.test_case "markers" `Quick test_markers;
        ] );
      ( "pins",
        [
          Alcotest.test_case "matmul record streams" `Quick test_stream_pins;
          Alcotest.test_case "mem-trace record cost" `Quick test_mem_record_cost;
        ] );
      ( "analyzers",
        [
          Alcotest.test_case "edge profile" `Quick test_edge_profile;
          Alcotest.test_case "call stack replay" `Quick test_call_stack_replay;
        ] );
    ]
