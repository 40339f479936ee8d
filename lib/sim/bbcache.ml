(* The superblock execution engine: rvsim's code cache.

   Production DBI systems (DynamoRIO, Pin, MAMBO-V on RISC-V) get their
   speed from translating once into a code cache of basic blocks and
   executing blocks, not instructions.  This module is that idea applied
   to our substitute hardware: on first execution of a pc we decode the
   straight-line run of instructions up to the next control-flow/system
   op (or region end) into an array of pre-specialized micro-op closures
   — operand register indices, immediates and memory helpers bound at
   translation time — so the hot loop is one indirect call per micro-op
   plus one terminator executed through the interpreter's own
   exec_op/retire pair.  The
   body's instret delta and cost-model cycle total are precomputed and
   charged in a single add.

   Blocks live per region in [bslots], keyed by halfword offset exactly
   like the decode-cache [slots], and are chained tail-to-head for
   direct-jump successors so a hot loop never touches the region table.
   [Machine.flush_icache] clears every bslot *and* bumps [icache_gen];
   chain links carry the generation they were translated under, so a
   stale block reachable only through a chain can never execute after a
   FENCE.I or a ProcControl patch.

   Observability is fused, not degraded: translation happens under the
   machine's current observability configuration.  An installed trace
   hook is pre-bound into every body micro-op (pc store + hook call +
   op), active HPM selectors are folded into a precomputed per-counter
   body delta charged in one pass at block end (body instructions are
   never taken branches, so their event counts are static), and the
   sampling timer is batched at block boundaries: dispatch checks
   whether the deadline could fall inside the block's cycle total and,
   if so, re-enters the precise interpreter one instruction at a time
   until the firing is past — the firing cycle is exact because
   [Machine.retire] itself performs the deadline check for every
   precisely-stepped instruction and for every block terminator.

   Each block records the configuration it was compiled under — the
   trace-hook cell (compared by physical equality, so a plain
   [t.trace <- ...] assignment is detected) and the packed HPM selector
   signature.  Dispatch treats a mismatch as observability-stale and
   retranslates the block in place, so toggling tracing or a selector
   invalidates only the translations actually reached afterwards, and
   only once.  Hook and selector changes made *mid-block* (e.g. by a
   trace hook reassigning [t.trace]) take effect at the next block
   boundary, exactly like a FENCE.I-less code patch.

   Precision on faults: a body closure that can fault (memory ops,
   every generic fallback, and every traced op — hooks may raise) is
   wrapped so that on an exception the pc, instret, cycles and HPM
   counters are first fixed up to the retired prefix of the block — the
   machine is left exactly as the interpreter would leave it,
   mid-block.  rvcheck's engine mode diffs all of this against the
   interpreter under plain/trace/hpm/timer, including mid-block
   self-modification. *)

open Riscv

(* The engine's counters live in the registry.  The block loop only
   bumps plain fields of the running machine; [run] moves them to these
   rows once per call, on every exit path. *)
module Obs = Dyn_obs.Registry

let m_translated = Obs.counter "sim.bb.translated"
let m_blocks = Obs.counter "sim.bb.blocks"
let m_chain_hits = Obs.counter "sim.bb.chain_hits"
let m_retrans = Obs.counter "sim.bb.retranslated"
let m_timer_steps = Obs.counter "sim.bb.timer_steps"
let m_singles = Obs.counter "sim.bb.singles"
let m_evicted = Obs.counter "sim.bb.evicted"

let publish (t : Machine.t) =
  let move c n = if n <> 0 then Obs.incr ~by:n c in
  move m_translated t.Machine.bb_translated;
  move m_blocks t.Machine.bb_blocks;
  move m_chain_hits t.Machine.bb_chain_hits;
  move m_retrans t.Machine.bb_retrans;
  move m_timer_steps t.Machine.bb_timer_steps;
  move m_singles t.Machine.bb_singles;
  move m_evicted t.Machine.bb_evicted;
  t.Machine.bb_translated <- 0;
  t.Machine.bb_blocks <- 0;
  t.Machine.bb_chain_hits <- 0;
  t.Machine.bb_retrans <- 0;
  t.Machine.bb_timer_steps <- 0;
  t.Machine.bb_singles <- 0;
  t.Machine.bb_evicted <- 0

(* --- translation ---------------------------------------------------------- *)

(* Ops that end a superblock: anything that redirects the pc, stops the
   machine, talks to the OS, flushes the cache we are standing in, or
   reads/writes CSRs (counter reads must observe fully-retired state).
   They execute as terminators through [Machine.exec_step]. *)
let ends_block op =
  match op with
  | Op.ECALL | Op.EBREAK | Op.FENCE | Op.FENCE_I | Op.CSRRW | Op.CSRRS
  | Op.CSRRC | Op.CSRRWI | Op.CSRRSI | Op.CSRRCI ->
      true
  | op -> Op.is_control_flow op

let max_block_insns = 64

(* Decode at [pc] inside [r] through the region's decode-cache slot (the
   same discipline as Machine.fetch, without the region lookup). *)
let decode_in t (r : Machine.region) pc =
  let slot = Int64.to_int (Int64.sub pc r.Machine.r_base) / 2 in
  match r.Machine.slots.(slot) with
  | Some _ as s -> s
  | None -> (
      match Machine.decode_at t pc with
      | Some _ as s ->
          r.Machine.slots.(slot) <- s;
          s
      | None -> None)

(* Compile one body instruction at [pc] into a micro-op closure.
   Returns the closure and whether it can raise (and therefore needs the
   precise-state guard).  The hot ops of our mutatees are bound by hand;
   everything else goes through Machine.exec_op with the pc and decoded
   instruction captured, so the long tail shares the interpreter's
   semantics by construction.  Closures read t.regs directly: x0 is kept
   0 by invariant, and ops with rd = 0 fall through to the fallback,
   which routes writes through set_reg (and still performs load side
   effects, e.g. faults). *)
(* Register-file indexing inside the compiled closures skips the bounds
   check: every rd/rs field comes out of a 5-bit decode extract, so it
   indexes the 32-entry files by construction. *)
let ( .%() ) = Array.unsafe_get
let ( .%()<- ) = Array.unsafe_set

let compile (i : Insn.t) ~(pc : int64) : (Machine.t -> unit) * bool =
  let rd = i.Insn.rd and rs1 = i.Insn.rs1 and rs2 = i.Insn.rs2 in
  let rs3 = i.Insn.rs3 in
  let imm = i.Insn.imm in
  let pure f = (f, false) in
  let mem f = (f, true) in
  let sx32 = Dyn_util.Bits.to_int32_sx in
  let open Machine in
  match i.Insn.op with
  (* integer ALU, register-immediate *)
  | Op.ADDI when rd <> 0 -> pure (fun t -> t.regs.%(rd) <- Int64.add t.regs.%(rs1) imm)
  | Op.ANDI when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- Int64.logand t.regs.%(rs1) imm)
  | Op.ORI when rd <> 0 -> pure (fun t -> t.regs.%(rd) <- Int64.logor t.regs.%(rs1) imm)
  | Op.XORI when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- Int64.logxor t.regs.%(rs1) imm)
  | Op.SLTI when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- (if Int64.compare t.regs.%(rs1) imm < 0 then 1L else 0L))
  | Op.SLTIU when rd <> 0 ->
      pure (fun t ->
          t.regs.%(rd) <- (if Int64.unsigned_compare t.regs.%(rs1) imm < 0 then 1L else 0L))
  | Op.LUI when rd <> 0 -> pure (fun t -> t.regs.%(rd) <- imm)
  | Op.AUIPC when rd <> 0 ->
      let v = Int64.add pc imm in
      pure (fun t -> t.regs.%(rd) <- v)
  | Op.SLLI when rd <> 0 ->
      let sh = Insn.imm_int i in
      pure (fun t -> t.regs.%(rd) <- Int64.shift_left t.regs.%(rs1) sh)
  | Op.SRLI when rd <> 0 ->
      let sh = Insn.imm_int i in
      pure (fun t -> t.regs.%(rd) <- Int64.shift_right_logical t.regs.%(rs1) sh)
  | Op.SRAI when rd <> 0 ->
      let sh = Insn.imm_int i in
      pure (fun t -> t.regs.%(rd) <- Int64.shift_right t.regs.%(rs1) sh)
  | Op.ADDIW when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- sx32 (Int64.add t.regs.%(rs1) imm))
  | Op.SLLIW when rd <> 0 ->
      let sh = Insn.imm_int i in
      pure (fun t -> t.regs.%(rd) <- sx32 (Int64.shift_left t.regs.%(rs1) sh))
  (* integer ALU, register-register *)
  | Op.ADD when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- Int64.add t.regs.%(rs1) t.regs.%(rs2))
  | Op.SUB when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- Int64.sub t.regs.%(rs1) t.regs.%(rs2))
  | Op.AND when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- Int64.logand t.regs.%(rs1) t.regs.%(rs2))
  | Op.OR when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- Int64.logor t.regs.%(rs1) t.regs.%(rs2))
  | Op.XOR when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- Int64.logxor t.regs.%(rs1) t.regs.%(rs2))
  | Op.SLT when rd <> 0 ->
      pure (fun t ->
          t.regs.%(rd) <- (if Int64.compare t.regs.%(rs1) t.regs.%(rs2) < 0 then 1L else 0L))
  | Op.SLTU when rd <> 0 ->
      pure (fun t ->
          t.regs.%(rd) <-
            (if Int64.unsigned_compare t.regs.%(rs1) t.regs.%(rs2) < 0 then 1L else 0L))
  | Op.ADDW when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- sx32 (Int64.add t.regs.%(rs1) t.regs.%(rs2)))
  | Op.SUBW when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- sx32 (Int64.sub t.regs.%(rs1) t.regs.%(rs2)))
  | Op.MUL when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- Int64.mul t.regs.%(rs1) t.regs.%(rs2))
  | Op.MULW when rd <> 0 ->
      pure (fun t -> t.regs.%(rd) <- sx32 (Int64.mul t.regs.%(rs1) t.regs.%(rs2)))
  (* Zba address arithmetic, hot in array code *)
  | Op.SH1ADD when rd <> 0 ->
      pure (fun t ->
          t.regs.%(rd) <- Int64.add t.regs.%(rs2) (Int64.shift_left t.regs.%(rs1) 1))
  | Op.SH2ADD when rd <> 0 ->
      pure (fun t ->
          t.regs.%(rd) <- Int64.add t.regs.%(rs2) (Int64.shift_left t.regs.%(rs1) 2))
  | Op.SH3ADD when rd <> 0 ->
      pure (fun t ->
          t.regs.%(rd) <- Int64.add t.regs.%(rs2) (Int64.shift_left t.regs.%(rs1) 3))
  (* loads; rd = 0 falls through so the fallback still performs the read *)
  | Op.LD when rd <> 0 ->
      mem (fun t -> t.regs.%(rd) <- Mem.read64 t.mem (Int64.add t.regs.%(rs1) imm))
  | Op.LW when rd <> 0 ->
      mem (fun t ->
          t.regs.%(rd) <-
            sx32 (Int64.of_int (Mem.read32 t.mem (Int64.add t.regs.%(rs1) imm))))
  | Op.LWU when rd <> 0 ->
      mem (fun t ->
          t.regs.%(rd) <- Int64.of_int (Mem.read32 t.mem (Int64.add t.regs.%(rs1) imm)))
  | Op.LH when rd <> 0 ->
      mem (fun t ->
          t.regs.%(rd) <-
            Int64.of_int
              (Dyn_util.Bits.sign_extend
                 (Mem.read16 t.mem (Int64.add t.regs.%(rs1) imm))
                 16))
  | Op.LHU when rd <> 0 ->
      mem (fun t ->
          t.regs.%(rd) <- Int64.of_int (Mem.read16 t.mem (Int64.add t.regs.%(rs1) imm)))
  | Op.LB when rd <> 0 ->
      mem (fun t ->
          t.regs.%(rd) <-
            Int64.of_int
              (Dyn_util.Bits.sign_extend (Mem.read8 t.mem (Int64.add t.regs.%(rs1) imm)) 8))
  | Op.LBU when rd <> 0 ->
      mem (fun t ->
          t.regs.%(rd) <- Int64.of_int (Mem.read8 t.mem (Int64.add t.regs.%(rs1) imm)))
  (* stores *)
  | Op.SD -> mem (fun t -> Mem.write64 t.mem (Int64.add t.regs.%(rs1) imm) t.regs.%(rs2))
  | Op.SW ->
      mem (fun t ->
          Mem.write32 t.mem
            (Int64.add t.regs.%(rs1) imm)
            (Int64.to_int (Int64.logand t.regs.%(rs2) 0xFFFF_FFFFL)))
  | Op.SH ->
      mem (fun t ->
          Mem.write16 t.mem
            (Int64.add t.regs.%(rs1) imm)
            (Int64.to_int (Int64.logand t.regs.%(rs2) 0xFFFFL)))
  | Op.SB ->
      mem (fun t ->
          Mem.write8 t.mem
            (Int64.add t.regs.%(rs1) imm)
            (Int64.to_int (Int64.logand t.regs.%(rs2) 0xFFL)))
  (* D-extension memory and arithmetic, hot in matmul-class mutatees *)
  | Op.FLD -> mem (fun t -> t.fregs.%(rd) <- Mem.read64 t.mem (Int64.add t.regs.%(rs1) imm))
  | Op.FSD ->
      mem (fun t -> Mem.write64 t.mem (Int64.add t.regs.%(rs1) imm) t.fregs.%(rs2))
  | Op.FADD_D ->
      pure (fun t ->
          t.fregs.%(rd) <-
            Fpu.bits_of_f64 (Fpu.f64_of_bits t.fregs.%(rs1) +. Fpu.f64_of_bits t.fregs.%(rs2)))
  | Op.FSUB_D ->
      pure (fun t ->
          t.fregs.%(rd) <-
            Fpu.bits_of_f64 (Fpu.f64_of_bits t.fregs.%(rs1) -. Fpu.f64_of_bits t.fregs.%(rs2)))
  | Op.FMUL_D ->
      pure (fun t ->
          t.fregs.%(rd) <-
            Fpu.bits_of_f64 (Fpu.f64_of_bits t.fregs.%(rs1) *. Fpu.f64_of_bits t.fregs.%(rs2)))
  | Op.FMADD_D ->
      pure (fun t ->
          t.fregs.%(rd) <-
            Fpu.bits_of_f64
              (Float.fma
                 (Fpu.f64_of_bits t.fregs.%(rs1))
                 (Fpu.f64_of_bits t.fregs.%(rs2))
                 (Fpu.f64_of_bits t.fregs.%(rs3))))
  (* everything else — divisions, AMOs, single floats, conversions,
     Zbb, x0 destinations — shares the interpreter's code path *)
  | _ -> ((fun t -> ignore (Machine.exec_op t i ~pc)), true)

(* Translate the straight-line run starting at [pc0] inside [r].  The
   body stops at a terminator op, an undecodable/misaligned pc, the
   region end, or [max_block_insns]; whatever stopped it becomes the
   terminator pc and executes through the interpreter.

   Translation happens under the machine's *current* observability
   configuration, fused in rather than checked per dispatch:
   - an installed trace hook is pre-bound into every body closure as
     pc store + hook call + op, preserving the interpreter's hook-time
     state (pc at the instruction, prefix fully retired);
   - active HPM selectors become a precomputed per-counter body delta.
     Body instructions are never control flow, so [Cost.counts_event]
     with [~taken:false] is a translation-time constant per insn;
   - the per-op precise-state guard extends to every traced op (hooks
     may raise) and restores the HPM prefix too. *)
let translate (t : Machine.t) (r : Machine.region) (pc0 : int64) : Machine.block =
  let model = t.Machine.model in
  let rec collect acc n pc =
    if
      n >= max_block_insns
      || Int64.logand pc 1L <> 0L
      || not (Machine.in_region r pc)
    then (List.rev acc, pc)
    else
      match decode_in t r pc with
      | None -> (List.rev acc, pc)
      | Some i when ends_block i.Insn.op -> (List.rev acc, pc)
      | Some i -> collect ((pc, i) :: acc) (n + 1) (Int64.add pc (Int64.of_int i.Insn.len))
  in
  let body, term_pc = collect [] 0 pc0 in
  let n = List.length body in
  let ops = Array.make n (fun (_ : Machine.t) -> ()) in
  let cyc = ref 0 in
  let tr = t.Machine.trace in
  let fuse_hpm = t.Machine.hpm_active in
  (* running per-counter body delta; snapshots of it guard mid-block
     faults, its final value is the block's one-add HPM charge *)
  let hpm_run = Array.make Machine.n_hpm_counters 0L in
  List.iteri
    (fun k (ipc, i) ->
      let f, may_raise = compile i ~pc:ipc in
      let f =
        match tr with
        | None -> f
        | Some hook ->
            (* fused hook call: the interpreter traces with t.pc still
               at the instruction, so publish the pc first *)
            fun t ->
              t.Machine.pc <- ipc;
              hook ipc i;
              f t
      in
      let f =
        if not (may_raise || Option.is_some tr) then f
        else
          (* precise-state guard: on any exception, retire the prefix
             [0, k) and leave pc at the faulting instruction — exactly
             the interpreter's mid-run state *)
          let prefix_cycles = Int64.of_int !cyc and prefix_insns = Int64.of_int k in
          let prefix_hpm = if fuse_hpm then Some (Array.copy hpm_run) else None in
          fun t ->
            try f t
            with e ->
              t.Machine.pc <- ipc;
              t.Machine.instret <- Int64.add t.Machine.instret prefix_insns;
              t.Machine.cycles <- Int64.add t.Machine.cycles prefix_cycles;
              (match prefix_hpm with
              | None -> ()
              | Some d ->
                  for j = 0 to Machine.n_hpm_counters - 1 do
                    t.Machine.hpm.(j) <- Int64.add t.Machine.hpm.(j) d.(j)
                  done);
              raise e
      in
      ops.(k) <- f;
      if fuse_hpm then
        for j = 0 to Machine.n_hpm_counters - 1 do
          if Cost.counts_event t.Machine.hpm_event.(j) i ~taken:false then
            hpm_run.(j) <- Int64.add hpm_run.(j) 1L
        done;
      cyc := !cyc + model.Cost.cost i.Insn.op)
    body;
  let term =
    (* pre-decode the terminator too (through the same slot cache the
       interpreter's fetch uses), so the fast path skips the fetch *)
    if Machine.in_region r term_pc && Int64.logand term_pc 1L = 0L then
      decode_in t r term_pc
    else None
  in
  let chainable =
    (* a JALR tail (returns, indirect calls) targets many successors;
       chaining it would thrash the two slots *)
    match term with Some i -> i.Insn.op <> Op.JALR | None -> true
  in
  t.Machine.bb_translated <- t.Machine.bb_translated + 1;
  {
    Machine.bk_pc = pc0;
    bk_term_pc = term_pc;
    bk_term = term;
    bk_ninsns = n;
    bk_cycles = !cyc;
    bk_ops = ops;
    bk_gen = t.Machine.icache_gen;
    bk_trace = tr;
    bk_hpm_sig = t.Machine.hpm_sig;
    bk_hpm_delta = (if fuse_hpm then Some hpm_run else None);
    bk_chainable = chainable;
    bk_c1 = None;
    bk_c2 = None;
    bk_hot = false;
  }

(* --- residency bound ------------------------------------------------------- *)

(* Keep at most [bb_cap] translated blocks live, the same LRU/size-cap
   discipline the rvserved artifact cache applies server-side.  CLOCK
   approximation: blocks enter [bb_fifo] in translation order; eviction
   pops the head, gives blocks executed since their last consideration
   ([bk_hot]) a second chance, and clears the bslot of the first cold
   block found.  Evicted blocks may momentarily stay reachable through
   tail-to-head chains — that is safe (they are valid translations until
   the next flush bumps the generation) and the chain source itself is
   evictable, so the GC reclaims them.  One full hot round degenerates
   to FIFO, which bounds the scan. *)
let enforce_cap (t : Machine.t) =
  let cap = t.Machine.bb_cap in
  if cap > 0 then
    while t.Machine.bb_live > cap && not (Queue.is_empty t.Machine.bb_fifo) do
      let budget = ref (Queue.length t.Machine.bb_fifo) in
      let evicted = ref false in
      while not !evicted && !budget > 0 do
        decr budget;
        let r, slot = Queue.pop t.Machine.bb_fifo in
        match r.Machine.bslots.(slot) with
        | None ->
            (* stale fifo entry (slot already cleared); drop it and keep
               scanning — bb_live only counts slots that hold a block *)
            ()
        | Some b when b.Machine.bk_hot && !budget > 0 ->
            b.Machine.bk_hot <- false;
            Queue.add (r, slot) t.Machine.bb_fifo
        | Some _ ->
            r.Machine.bslots.(slot) <- None;
            t.Machine.bb_live <- t.Machine.bb_live - 1;
            t.Machine.bb_evicted <- t.Machine.bb_evicted + 1;
            evicted := true
      done
    done

(* --- dispatch ------------------------------------------------------------- *)

(* The observability cache key: a block is only executable if it was
   translated under the machine's current trace hook (physical equality
   on the option cell — [t.trace <- ...] replaces the cell, so direct
   assignment is detected; [None] is immediate) and the current packed
   HPM selector signature. *)
let obs_ok (t : Machine.t) (b : Machine.block) =
  b.Machine.bk_trace == t.Machine.trace
  && b.Machine.bk_hpm_sig = t.Machine.hpm_sig

let lookup (t : Machine.t) pc : Machine.block option =
  if Int64.logand pc 1L <> 0L then None
  else
    match Machine.find_region t pc with
    | None -> None
    | Some r -> (
        let slot = Int64.to_int (Int64.sub pc r.Machine.r_base) / 2 in
        match r.Machine.bslots.(slot) with
        | Some b when obs_ok t b -> Some b
        | Some _ ->
            (* observability-stale: retranslate in place under the new
               configuration.  The slot keeps its fifo entry and stays
               counted in bb_live — only the translation is replaced. *)
            let b = translate t r pc in
            r.Machine.bslots.(slot) <- Some b;
            t.Machine.bb_retrans <- t.Machine.bb_retrans + 1;
            Some b
        | None ->
            let b = translate t r pc in
            r.Machine.bslots.(slot) <- Some b;
            Queue.add (r, slot) t.Machine.bb_fifo;
            t.Machine.bb_live <- t.Machine.bb_live + 1;
            enforce_cap t;
            Some b)

let chain_get (t : Machine.t) (b : Machine.block) gen pc =
  match b.Machine.bk_c1 with
  | Some (p, tgt) when Int64.equal p pc && tgt.Machine.bk_gen = gen && obs_ok t tgt
    ->
      Some tgt
  | _ -> (
      match b.Machine.bk_c2 with
      | Some (p, tgt)
        when Int64.equal p pc && tgt.Machine.bk_gen = gen && obs_ok t tgt ->
          Some tgt
      | _ -> None)

let chain_put (b : Machine.block) pc tgt =
  if b.Machine.bk_chainable then
    match b.Machine.bk_c1 with
    | None -> b.Machine.bk_c1 <- Some (pc, tgt)
    | Some (p, _) when Int64.equal p pc -> b.Machine.bk_c1 <- Some (pc, tgt)
    | Some _ -> b.Machine.bk_c2 <- Some (pc, tgt)

(* Could the sampling timer's deadline fall inside this block?  The
   body's cycle total is precomputed, and retire-time cycle counts only
   grow, so [cycles + bk_cycles < deadline] proves no body retirement
   can cross the deadline; the terminator retires through
   [Machine.retire], which performs the precise check itself.  When the
   deadline could fall inside, dispatch steps precisely instead, so the
   firing instruction is exact. *)
let timer_due (t : Machine.t) (b : Machine.block) =
  Int64.compare t.Machine.timer_period 0L > 0
  && Int64.compare
       (Int64.add t.Machine.cycles (Int64.of_int b.Machine.bk_cycles))
       t.Machine.timer_deadline
     >= 0

(* Execute one translated block: the body closures, one retire add for
   the whole body (instret, cycles and — when selectors were armed at
   translation — the precomputed HPM delta), then the terminator with
   the interpreter's own exec_op/retire (which may raise Stopped).  A
   pre-decoded terminator skips the fetch but still calls the live
   trace hook; stale decode-slot semantics under self-modification
   match the interpreter's (both invalidate only on flush_icache), and
   [Machine.retire] performs the same HPM/cost/timer accounting the
   interpreter does. *)
let exec_block (t : Machine.t) (b : Machine.block) =
  b.Machine.bk_hot <- true;
  let ops = b.Machine.bk_ops in
  for k = 0 to Array.length ops - 1 do
    (Array.unsafe_get ops k) t
  done;
  t.Machine.instret <- Int64.add t.Machine.instret (Int64.of_int b.Machine.bk_ninsns);
  t.Machine.cycles <- Int64.add t.Machine.cycles (Int64.of_int b.Machine.bk_cycles);
  (match b.Machine.bk_hpm_delta with
  | None -> ()
  | Some d ->
      for j = 0 to Machine.n_hpm_counters - 1 do
        t.Machine.hpm.(j) <- Int64.add t.Machine.hpm.(j) d.(j)
      done);
  t.Machine.pc <- b.Machine.bk_term_pc;
  match b.Machine.bk_term with
  | None -> Machine.exec_step t
  | Some i ->
      (match t.Machine.trace with
      | Some f -> f b.Machine.bk_term_pc i
      | None -> ());
      let next_pc, taken = Machine.exec_op t i ~pc:b.Machine.bk_term_pc in
      t.Machine.pc <- next_pc;
      Machine.retire t i ~taken

let run ?(max_steps = max_int) (t : Machine.t) : Machine.stop =
  let rec go steps (prev : Machine.block option) =
    if steps >= max_steps then Machine.Limit
    else
      let pc = t.Machine.pc in
      let b =
        match prev with
        | Some p -> (
            match chain_get t p t.Machine.icache_gen pc with
            | Some _ as hit ->
                t.Machine.bb_chain_hits <- t.Machine.bb_chain_hits + 1;
                hit
            | None ->
                let b = lookup t pc in
                (match b with Some tgt -> chain_put p pc tgt | None -> ());
                b)
        | None -> lookup t pc
      in
      match b with
      | Some b
        when steps + b.Machine.bk_ninsns + 1 <= max_steps && not (timer_due t b)
        ->
          exec_block t b;
          t.Machine.bb_blocks <- t.Machine.bb_blocks + 1;
          go (steps + b.Machine.bk_ninsns + 1) (Some b)
      | Some b ->
          (* timer deadline inside the block, or not enough budget left
             for a whole block: one precise step, then re-dispatch (a
             mid-block pc translates its own tail block) *)
          if timer_due t b then
            t.Machine.bb_timer_steps <- t.Machine.bb_timer_steps + 1
          else t.Machine.bb_singles <- t.Machine.bb_singles + 1;
          Machine.exec_step t;
          go (steps + 1) None
      | None ->
          (* unregistered or misaligned pc: fall back to one precise step *)
          Machine.exec_step t;
          t.Machine.bb_singles <- t.Machine.bb_singles + 1;
          go (steps + 1) None
  in
  Fun.protect
    ~finally:(fun () -> publish t)
    (fun () ->
      match go 0 None with
      | s -> s
      | exception Machine.Stopped s -> s
      | exception Mem.Fault a -> Machine.Fault ("memory fault", a))

let () = Machine.install_block_engine (fun ~max_steps t -> run ~max_steps t)
