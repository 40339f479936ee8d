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

   and diffs everything at the end: stop reason, the machine state
   (Diffkit.machines: pc, registers, fcsr, reservation, full sparse
   memory), cycles, instret, the HPM counters, stdout, trace-hook call
   counts and timer firing cycles.  A case id is `engine:MUTATEE:OBS`,
   where MUTATEE is a builtin, `selfmod` or `fuzz-SEED/LEN` and OBS
   one of the four names above; the timer period is fixed per mutatee
   kind (1000 cycles for builtins, 50 for fuzz, 10 for selfmod).

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

let hpm_config = [ 1; 2; 3; 4 ] (* branch, taken-branch, load, store *)

(* Run a fresh machine under one engine with [obs] installed; the
   machine itself is what gets diffed. *)
let run_machine ~engine ~obs ~max_steps ((m : Rvsim.Machine.t), stdout_of) =
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
  (stop, m, stdout_of (), !trace_count, List.rev !fires)

(* Everything the block engine must reproduce, interpreter first. *)
let diff_engines ~obs ~max_steps load : Diffkit.outcome =
  let sa, a, oa, ta, fa = run_machine ~engine:`Interp ~obs ~max_steps (load ()) in
  let sb, b, ob, tb, fb = run_machine ~engine:`Block ~obs ~max_steps (load ()) in
  let ds = ref [] in
  let push fmt = Printf.ksprintf (fun s -> ds := s :: !ds) fmt in
  let stop_str s = Format.asprintf "%a" Rvsim.Machine.pp_stop s in
  let open Rvsim.Machine in
  if sa <> sb then push "stop: interp %s, block %s" (stop_str sa) (stop_str sb);
  if a.cycles <> b.cycles then push "cycles: interp %Ld, block %Ld" a.cycles b.cycles;
  if a.instret <> b.instret then
    push "instret: interp %Ld, block %Ld" a.instret b.instret;
  Array.iteri
    (fun k va ->
      if va <> b.hpm.(k) then
        push "mhpmcounter%d: interp %Ld, block %Ld" (3 + k) va b.hpm.(k))
    a.hpm;
  (match (oa, ob) with
  | Some sa, Some sb when sa <> sb -> push "stdout: interp %S, block %S" sa sb
  | _ -> ());
  if ta <> tb then push "trace hook calls: interp %d, block %d" ta tb;
  if fa <> fb then
    push "timer firings: interp [%s], block [%s]"
      (String.concat "; " (List.map Int64.to_string fa))
      (String.concat "; " (List.map Int64.to_string fb));
  {
    Diffkit.diffs = List.rev !ds @ Diffkit.machines ~a:"interp" ~b:"block" a b;
    notes = [ Printf.sprintf "%Ld insns" a.instret ];
    tags = [];
  }

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

(* A fresh machine with [code] mapped executable at [code_base] and the
   pc on its first instruction. *)
let code_machine code =
  let m = Rvsim.Machine.create () in
  ignore (Rvsim.Machine.add_code_region m ~base:code_base ~size:(Bytes.length code));
  Rvsim.Mem.write_bytes m.Rvsim.Machine.mem code_base code;
  m.Rvsim.Machine.pc <- code_base;
  m

let no_stdout () = None

(* The mutatee an id names: a loader giving a fresh machine per run, the
   step budget and the timer period. *)
let mutatee name =
  match Diffkit.fuzz_of_name name with
  | Some (seed, len) ->
      let code, regs, fregs = fuzz_program ~seed ~len in
      let load () =
        let m = code_machine code in
        Array.blit regs 0 m.Rvsim.Machine.regs 0 32;
        Array.blit fregs 0 m.Rvsim.Machine.fregs 0 32;
        (* nonzero pattern in the fuzz window so loads observe data *)
        for k = 0 to ((Fuzz.mem_hi - Fuzz.mem_lo) / 8) - 1 do
          let a = Int64.of_int (Fuzz.mem_lo + (8 * k)) in
          Rvsim.Mem.write64 m.Rvsim.Machine.mem a (Int64.mul a 0x0101_0101_0101_0101L)
        done;
        (m, no_stdout)
      in
      (load, len * 4, 50L)
  | None when name = "selfmod" ->
      ((fun () -> (code_machine (Lazy.force selfmod_code), no_stdout)), 10_000, 10L)
  | None ->
      let image = Diffkit.builtin name in
      let load () =
        let p = Rvsim.Loader.load image in
        let stdout () = Some (Rvsim.Syscall.stdout_contents p.Rvsim.Loader.os) in
        (p.Rvsim.Loader.machine, stdout)
      in
      (load, 20_000_000, 1000L)

let obs_names = [ "plain"; "trace"; "hpm"; "timer" ]

let cases ~mutatees ~seeds ?(len = 40) () =
  let fuzz = List.init seeds (fun k -> Diffkit.fuzz_name ~seed:(1000 + k) ~len) in
  List.concat_map
    (fun m -> List.map (Printf.sprintf "engine:%s:%s" m) obs_names)
    (mutatees @ ("selfmod" :: fuzz))

let leg =
  {
    Diffkit.name = "engine";
    run =
      (fun ~verbose:_ -> function
        | [ name; obs ] ->
            let load, max_steps, period = mutatee name in
            let obs =
              match obs with
              | "plain" -> Plain
              | "trace" -> Trace
              | "hpm" -> Hpm
              | "timer" -> Timer period
              | _ -> raise Diffkit.Bad_case
            in
            diff_engines ~obs ~max_steps load
        | _ -> raise Diffkit.Bad_case);
  }
