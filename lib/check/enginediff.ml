(* The engine differential: rvsim's superblock engine (Bbcache) against
   the precise per-instruction interpreter.

   The block engine's whole contract is indistinguishability — same
   architectural state, same cycles, same instret, same HPM counts, same
   timer firing points, same faults at the same pcs.  This harness runs
   the same mutatee twice, once per engine, under several observability
   configurations:

     plain    both engines on the fast path (trace off, timer off, HPM off)
     trace    a counting trace hook installed — the block engine fuses
              the hook into its translations and must call it exactly
              as often as the interpreter does
     hpm      four HPM selectors programmed — the block engine charges
              precomputed per-block deltas against per-retire counting
     timer    the sampling timer armed — block dispatch batches the
              deadline check at block boundaries; the exact cycle
              counts at which it fires are diffed

   and diffs everything at the end: stop reason, x1..x31, f0..f31, pc,
   fcsr, cycles, instret, the HPM counters, full sparse memory, stdout,
   trace-hook call counts and timer firing cycles.

   Mutatees are the minicc builtins (real loops, calls,
   matmul FP), seeded straight-line programs built from the lockstep
   fuzzer's adversarial instruction generator — these exercise the
   block-body specializations and the precise-state fault guards
   (illegal CSRs mid-block, traced ops whose prefix must retire) — and
   a hand-assembled self-modifying program that patches a chained
   block's body through store + FENCE.I mid-run, under every
   observability mode. *)

open Riscv

type obs = Plain | Trace | Hpm | Timer of int64

let obs_name = function
  | Plain -> "plain"
  | Trace -> "trace"
  | Hpm -> "hpm"
  | Timer _ -> "timer"

type result = {
  e_name : string;
  e_obs : string;
  e_instret : int64; (* interpreter-side retired instructions *)
  e_diffs : string list; (* divergences; empty = engines agree *)
}

type summary = { s_checked : int; s_diverged : int; s_failures : result list }

(* --- running one machine under one engine -------------------------------- *)

type outcome = {
  o_stop : Rvsim.Machine.stop;
  o_regs : int64 array;
  o_fregs : int64 array;
  o_pc : int64;
  o_cycles : int64;
  o_instret : int64;
  o_fcsr : int;
  o_hpm : int64 array;
  o_mem : Rvsim.Mem.t;
  o_stdout : string option;
  o_trace_count : int;
  o_timer_fires : int64 list;
}

let hpm_config = [ 1; 2; 3; 4 ] (* branch, taken-branch, load, store *)

let run_machine ~engine ~obs ~max_steps (m : Rvsim.Machine.t)
    (stdout_of : unit -> string option) : outcome =
  let trace_count = ref 0 and fires = ref [] in
  (match obs with
  | Plain -> ()
  | Trace -> m.Rvsim.Machine.trace <- Some (fun _ _ -> incr trace_count)
  | Hpm ->
      List.iteri
        (fun k sel -> Rvsim.Machine.csr_write m (0x323 + k) (Int64.of_int sel))
        hpm_config
  | Timer p ->
      Rvsim.Machine.set_timer m ~period:p (fun m ->
          fires := m.Rvsim.Machine.cycles :: !fires));
  let stop =
    match engine with
    | `Interp -> Rvsim.Machine.run_interp ~max_steps m
    | `Block -> Rvsim.Bbcache.run ~max_steps m
  in
  {
    o_stop = stop;
    o_regs = Array.copy m.Rvsim.Machine.regs;
    o_fregs = Array.copy m.Rvsim.Machine.fregs;
    o_pc = m.Rvsim.Machine.pc;
    o_cycles = m.Rvsim.Machine.cycles;
    o_instret = m.Rvsim.Machine.instret;
    o_fcsr = m.Rvsim.Machine.fcsr;
    o_hpm = Array.copy m.Rvsim.Machine.hpm;
    o_mem = m.Rvsim.Machine.mem;
    o_stdout = stdout_of ();
    o_trace_count = !trace_count;
    o_timer_fires = List.rev !fires;
  }

let diff_outcomes (a : outcome) (b : outcome) : string list =
  (* a = interpreter, b = block engine *)
  let ds = ref [] in
  let push fmt = Printf.ksprintf (fun s -> ds := s :: !ds) fmt in
  let stop_str s = Format.asprintf "%a" Rvsim.Machine.pp_stop s in
  if a.o_stop <> b.o_stop then
    push "stop: interp %s, block %s" (stop_str a.o_stop) (stop_str b.o_stop);
  if a.o_pc <> b.o_pc then push "pc: interp 0x%Lx, block 0x%Lx" a.o_pc b.o_pc;
  for r = 1 to 31 do
    if a.o_regs.(r) <> b.o_regs.(r) then
      push "x%d: interp 0x%Lx, block 0x%Lx" r a.o_regs.(r) b.o_regs.(r)
  done;
  for r = 0 to 31 do
    if a.o_fregs.(r) <> b.o_fregs.(r) then
      push "f%d: interp 0x%Lx, block 0x%Lx" r a.o_fregs.(r) b.o_fregs.(r)
  done;
  if a.o_fcsr <> b.o_fcsr then push "fcsr: interp %#x, block %#x" a.o_fcsr b.o_fcsr;
  if a.o_cycles <> b.o_cycles then
    push "cycles: interp %Ld, block %Ld" a.o_cycles b.o_cycles;
  if a.o_instret <> b.o_instret then
    push "instret: interp %Ld, block %Ld" a.o_instret b.o_instret;
  Array.iteri
    (fun k va ->
      if va <> b.o_hpm.(k) then
        push "mhpmcounter%d: interp %Ld, block %Ld" (3 + k) va b.o_hpm.(k))
    a.o_hpm;
  (match Oracle.mem_first_diff a.o_mem b.o_mem with
  | Some (addr, va, vb) ->
      push "memory at 0x%Lx: interp %02x, block %02x" addr va vb
  | None -> ());
  (match (a.o_stdout, b.o_stdout) with
  | Some sa, Some sb when sa <> sb -> push "stdout: interp %S, block %S" sa sb
  | _ -> ());
  if a.o_trace_count <> b.o_trace_count then
    push "trace hook calls: interp %d, block %d" a.o_trace_count b.o_trace_count;
  if a.o_timer_fires <> b.o_timer_fires then
    push "timer firings: interp [%s], block [%s]"
      (String.concat "; " (List.map Int64.to_string a.o_timer_fires))
      (String.concat "; " (List.map Int64.to_string b.o_timer_fires));
  List.rev !ds

(* --- mutatees ------------------------------------------------------------- *)

(* A compiled minicc builtin, loaded fresh per engine. *)
let check_builtin ?(max_steps = 20_000_000) name obs : result =
  let src =
    match List.assoc_opt name Minicc.Programs.builtins with
    | Some src -> Lazy.force src
    | None -> invalid_arg ("Enginediff.check_builtin: unknown mutatee " ^ name)
  in
  let compiled = Minicc.Driver.compile src in
  let run engine =
    let p = Rvsim.Loader.load compiled.Minicc.Driver.image in
    run_machine ~engine ~obs ~max_steps p.Rvsim.Loader.machine (fun () ->
        Some (Rvsim.Syscall.stdout_contents p.Rvsim.Loader.os))
  in
  let a = run `Interp in
  let b = run `Block in
  { e_name = name; e_obs = obs_name obs; e_instret = a.o_instret; e_diffs = diff_outcomes a b }

(* A seeded straight-line program: fuzzer-generated instructions with the
   control-flow ops filtered out, laid back to back and closed with an
   ebreak.  Register values point into the fuzzer's memory window three
   quarters of the time (long runs that really execute the block bodies)
   and keep the fuzzer's adversarial boundary values otherwise (both
   engines must fault identically, mid-block, with identical partial
   counters). *)
let code_base = 0x10000L

let fuzz_program ~seed ~len =
  let buf = Buffer.create (len * 4) in
  let rec add index taken =
    if taken < len && index < len * 8 then begin
      let c = Fuzz.case_of ~seed ~index in
      if Op.is_control_flow c.Fuzz.c_insn.Insn.op then add (index + 1) taken
      else begin
        Buffer.add_bytes buf c.Fuzz.c_bytes;
        add (index + 1) (taken + 1)
      end
    end
  in
  add 0 0;
  Buffer.add_bytes buf (Encode.encode Build.ebreak);
  let g = Prng.of_seed_index ~seed ~index:(-1) in
  let regs =
    Array.init 32 (fun r ->
        if r = 0 then 0L
        else if Prng.chance g 75 then
          Int64.of_int (Fuzz.mem_lo + (8 * Prng.int g ((Fuzz.mem_hi - Fuzz.mem_lo) / 8)))
        else Prng.i64 g)
  in
  let fregs = Array.init 32 (fun _ -> Prng.i64 g) in
  (Buffer.to_bytes buf, regs, fregs)

let check_fuzz ?(len = 40) ~seed obs : result =
  let code, regs, fregs = fuzz_program ~seed ~len in
  let run engine =
    let m = Rvsim.Machine.create () in
    Array.blit regs 0 m.Rvsim.Machine.regs 0 32;
    Array.blit fregs 0 m.Rvsim.Machine.fregs 0 32;
    ignore
      (Rvsim.Machine.add_code_region m ~base:code_base ~size:(Bytes.length code));
    Rvsim.Mem.write_bytes m.Rvsim.Machine.mem code_base code;
    (* nonzero pattern in the fuzz window so loads observe data *)
    let rec fill a =
      if a < Fuzz.mem_hi then begin
        Rvsim.Mem.write64 m.Rvsim.Machine.mem (Int64.of_int a)
          (Int64.mul (Int64.of_int a) 0x0101_0101_0101_0101L);
        fill (a + 8)
      end
    in
    fill Fuzz.mem_lo;
    m.Rvsim.Machine.pc <- code_base;
    run_machine ~engine ~obs ~max_steps:(len * 4) m (fun () -> None)
  in
  let a = run `Interp in
  let b = run `Block in
  {
    e_name = Printf.sprintf "fuzz-%Ld" seed;
    e_obs = obs_name obs;
    e_instret = a.o_instret;
    e_diffs = diff_outcomes a b;
  }

(* A hand-assembled self-modifying mutatee, the block cache's hardest
   case: block A ends in a direct jump chained tail-to-head to block B;
   after the chain is hot, B's body is patched (store + FENCE.I) and
   re-entered.  Under trace/hpm/timer the fused translations must be
   invalidated by the flush and rebuilt under the same observability
   configuration, with hook calls, counter values and firing cycles
   identical to the interpreter's. *)
let selfmod_code =
  lazy
    (let open Asm in
     let patch_word =
       let b = Encode.encode (Build.addi Reg.a0 Reg.zero 20) in
       Bytes.get_int64_le (Bytes.cat b (Bytes.make 4 '\000')) 0
     in
     let items =
       [
         Insn (Build.addi Reg.s0 Reg.zero 0);
         Label "loop";
         J "body" (* block A: chained tail-to-head to B *);
         Label "body";
         Insn (Build.addi Reg.a0 Reg.zero 10) (* block B body: patch target *);
         Br (Op.BNE, Reg.s0, Reg.zero, "after");
         Insn (Build.addi Reg.s0 Reg.zero 1);
         La (Reg.t0, "body");
         Li (Reg.t1, patch_word);
         Insn (Build.sw Reg.t1 0 Reg.t0);
         Insn (Riscv.Insn.make Op.FENCE_I);
         J "loop" (* re-enter through the (now stale) chain *);
         Label "after";
         Insn (Build.addi Reg.a0 Reg.a0 1);
         Insn Build.ebreak;
       ]
     in
     (Asm.assemble ~base:code_base items).Asm.code)

let check_selfmod obs : result =
  let code = Lazy.force selfmod_code in
  let run engine =
    let m = Rvsim.Machine.create () in
    ignore
      (Rvsim.Machine.add_code_region m ~base:code_base ~size:(Bytes.length code));
    Rvsim.Mem.write_bytes m.Rvsim.Machine.mem code_base code;
    m.Rvsim.Machine.pc <- code_base;
    run_machine ~engine ~obs ~max_steps:10_000 m (fun () -> None)
  in
  let a = run `Interp in
  let b = run `Block in
  {
    e_name = "selfmod";
    e_obs = obs_name obs;
    e_instret = a.o_instret;
    e_diffs = diff_outcomes a b;
  }

(* --- the sweep ------------------------------------------------------------ *)

let all_obs = [ Plain; Trace; Hpm; Timer 1000L ]

let sweep ?(mutatees = [ "fib"; "calls" ]) ?(seeds = 25) ?(len = 40)
    ?(base_seed = 1000) () : summary =
  let results =
    List.concat_map
      (fun name -> List.map (fun obs -> check_builtin name obs) all_obs)
      mutatees
    @ List.map (fun obs -> check_selfmod obs) [ Plain; Trace; Hpm; Timer 10L ]
    @ List.concat_map
        (fun k ->
          let seed = Int64.of_int (base_seed + k) in
          [
            check_fuzz ~len ~seed Plain;
            check_fuzz ~len ~seed Trace;
            check_fuzz ~len ~seed Hpm;
            check_fuzz ~len ~seed (Timer 50L);
          ])
        (List.init seeds Fun.id)
  in
  let failures = List.filter (fun r -> r.e_diffs <> []) results in
  {
    s_checked = List.length results;
    s_diverged = List.length failures;
    s_failures = failures;
  }

let pp_result fmt (r : result) =
  if r.e_diffs = [] then
    Format.fprintf fmt "%-12s %-6s agree (%Ld insns)@." r.e_name r.e_obs r.e_instret
  else begin
    Format.fprintf fmt "%-12s %-6s DIVERGED (%Ld insns)@." r.e_name r.e_obs
      r.e_instret;
    List.iter (fun d -> Format.fprintf fmt "  %s@." d) r.e_diffs
  end

let pp_summary fmt (s : summary) =
  if s.s_diverged = 0 then
    Format.fprintf fmt "engine differential: %d runs, zero divergences@." s.s_checked
  else begin
    Format.fprintf fmt "engine differential: %d of %d runs DIVERGED@." s.s_diverged
      s.s_checked;
    List.iter (pp_result fmt) s.s_failures
  end
