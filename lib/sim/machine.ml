(* RV64GC machine state and interpreter.

   Decoded instructions are cached per executable region in a slot array
   indexed by halfword offset; [flush_icache] (called by FENCE.I and by
   ProcControlAPI after patching code) invalidates the cache, mirroring
   what real instrumentation must do on hardware.

   Translated superblocks (see Bbcache) share the same per-region,
   per-halfword discipline through [bslots] and are invalidated by the
   same [flush_icache].  The block engine itself lives in bbcache.ml; it
   registers through [install_block_engine] so this module stays at the
   bottom of the dependency order. *)

open Riscv
open Dyn_util

type stop =
  | Exited of int
  | Ebreak of int64 (* pc of the ebreak; ProcControl maps these to breakpoints *)
  | Fault of string * int64
  | Limit (* step budget exhausted *)

type ecall_action = Ecall_continue | Ecall_exit of int

(* Which execution engine [run] uses for this machine.  [step] is always
   the precise interpreter regardless of this setting. *)
type engine = Eng_block | Eng_interp

(* mhpmcounter3..mhpmcounter3+n_hpm_counters-1, each with a per-counter
   event selector (see Cost.event) *)
let n_hpm_counters = 7

type region = {
  r_base : int64;
  r_size : int;
  slots : Insn.t option array; (* decode cache, one slot per halfword *)
  bslots : block option array; (* superblock cache, same indexing *)
}

and t = {
  regs : int64 array; (* x0..x31; x0 kept 0 *)
  fregs : int64 array; (* raw f0..f31 bits, NaN-boxed for singles *)
  mem : Mem.t;
  mutable pc : int64;
  mutable cycles : int64;
  mutable instret : int64;
  mutable fcsr : int;
  mutable mscratch : int64;
  hpm : int64 array; (* mhpmcounter3..9 values *)
  hpm_event : Cost.event array; (* per-counter selectors (mhpmevent3..9) *)
  mutable hpm_active : bool; (* any selector non-off: count on retire *)
  mutable hpm_sig : int; (* packed selector signature; part of the block
                            engine's observability cache key *)
  mutable reservation : int64 option;
  mutable code_regions : region array; (* sorted by r_base, disjoint *)
  mutable last_region : region option;
  mutable icache_gen : int; (* bumped by flush_icache; stale-block fence *)
  mutable engine : engine;
  mutable on_ecall : t -> ecall_action;
  mutable trace : (int64 -> Insn.t -> unit) option;
  mutable timer_period : int64; (* sampling timer; 0 = disarmed *)
  mutable timer_deadline : int64; (* cycle count of the next firing *)
  mutable on_timer : (t -> unit) option;
  model : Cost.model;
  (* superblock-cache residency bound: translated blocks enter bb_fifo in
     translation order; when bb_live exceeds bb_cap the engine evicts
     cold blocks CLOCK-style (bbcache.ml), so long runs cannot grow the
     code cache without limit.  bb_cap <= 0 disables the bound. *)
  mutable bb_live : int; (* live translated blocks across all regions *)
  mutable bb_cap : int; (* residency cap; <= 0 = unbounded *)
  bb_fifo : (region * int) Queue.t; (* (region, bslot index), FIFO *)
  (* block-engine event counts not yet published: plain field writes in
     the block loop, moved to the sim.bb.* registry counters when
     Bbcache.run exits *)
  mutable bb_translated : int;
  mutable bb_blocks : int;
  mutable bb_chain_hits : int;
  mutable bb_retrans : int;
  mutable bb_timer_steps : int;
  mutable bb_singles : int;
  mutable bb_evicted : int;
}

(* A translated straight-line run of instructions: the body as pre-bound
   micro-op closures, retired with one instret/cycles add, ending just
   before a control-flow/system terminator that executes through the
   precise interpreter.

   Observability is fused at translation time: an installed trace hook
   is pre-bound into each body micro-op, and active HPM selectors are
   folded into a precomputed per-counter body delta.  [bk_trace] and
   [bk_hpm_sig] record the configuration the block was compiled under —
   the engine's observability cache key; a block whose key no longer
   matches the machine is retranslated in place on its next dispatch. *)
and block = {
  bk_pc : int64; (* first body instruction *)
  bk_term_pc : int64; (* the terminator (= bk_pc when the body is empty) *)
  bk_term : Insn.t option; (* pre-decoded terminator, None = fetch at run time *)
  bk_ninsns : int; (* body length, excluding the terminator *)
  bk_cycles : int; (* precomputed cost-model total of the body *)
  bk_ops : (t -> unit) array;
  bk_gen : int; (* icache_gen at translation; mismatch = stale *)
  bk_trace : (int64 -> Insn.t -> unit) option; (* hook fused into bk_ops *)
  bk_hpm_sig : int; (* hpm_sig at translation; mismatch = stale *)
  bk_hpm_delta : int64 array option; (* body HPM deltas, None = hpm off *)
  bk_chainable : bool; (* false for indirect-jump terminators *)
  mutable bk_c1 : (int64 * block) option; (* tail-to-head chain slots: *)
  mutable bk_c2 : (int64 * block) option; (* successor pc -> block *)
  mutable bk_hot : bool; (* executed since last eviction scan (CLOCK bit) *)
}

let create ?(model = Cost.p550) () =
  {
    regs = Array.make 32 0L;
    fregs = Array.make 32 0L;
    mem = Mem.create ();
    pc = 0L;
    cycles = 0L;
    instret = 0L;
    fcsr = 0;
    mscratch = 0L;
    hpm = Array.make n_hpm_counters 0L;
    hpm_event = Array.make n_hpm_counters Cost.Ev_off;
    hpm_active = false;
    hpm_sig = 0;
    reservation = None;
    code_regions = [||];
    last_region = None;
    icache_gen = 0;
    engine = Eng_block;
    on_ecall = (fun _ -> Ecall_exit 127) (* no OS attached *);
    trace = None;
    timer_period = 0L;
    timer_deadline = 0L;
    on_timer = None;
    model;
    bb_live = 0;
    (* default residency bound: generous for every built-in mutatee
       (hundreds of blocks) while capping long multi-tenant runs; the
       same role the artifact cache's entry cap plays server-side *)
    bb_cap = 4096;
    bb_fifo = Queue.create ();
    bb_translated = 0;
    bb_blocks = 0;
    bb_chain_hits = 0;
    bb_retrans = 0;
    bb_timer_steps = 0;
    bb_singles = 0;
    bb_evicted = 0;
  }

let get_reg t r = if r = 0 then 0L else t.regs.(r)
let set_reg t r v = if r <> 0 then t.regs.(r) <- v
let get_freg t r = t.fregs.(r)
let set_freg t r v = t.fregs.(r) <- v

(* Register an executable region so its decodes are cached.  Regions are
   kept in a base-sorted array: rewriting adds trampoline regions, so
   lookup must not degrade into a linear scan (registration itself is
   rare and may pay the sort). *)
let add_code_region t ~base ~size =
  let region =
    {
      r_base = base;
      r_size = size;
      slots = Array.make ((size / 2) + 1) None;
      bslots = Array.make ((size / 2) + 1) None;
    }
  in
  let rs = Array.append t.code_regions [| region |] in
  Array.sort (fun a b -> Int64.compare a.r_base b.r_base) rs;
  t.code_regions <- rs;
  region

let bump_hpm_event t ev =
  if t.hpm_active then
    for k = 0 to n_hpm_counters - 1 do
      if t.hpm_event.(k) = ev then t.hpm.(k) <- Int64.add t.hpm.(k) 1L
    done

let m_flushes = Dyn_obs.Registry.counter "sim.icache.flushes"

let flush_icache t =
  Array.iter
    (fun r ->
      Array.fill r.slots 0 (Array.length r.slots) None;
      Array.fill r.bslots 0 (Array.length r.bslots) None)
    t.code_regions;
  t.last_region <- None;
  t.icache_gen <- t.icache_gen + 1;
  Queue.clear t.bb_fifo;
  t.bb_live <- 0;
  Dyn_obs.Registry.incr m_flushes;
  bump_hpm_event t Cost.Ev_flush

let in_region r (pc : int64) =
  Int64.compare pc r.r_base >= 0
  && Int64.compare pc (Int64.add r.r_base (Int64.of_int r.r_size)) < 0

(* Binary search for the region with the greatest base <= pc (regions
   are disjoint, so it is the only candidate). *)
let find_region t pc =
  match t.last_region with
  | Some r when in_region r pc -> Some r
  | _ ->
      let rs = t.code_regions in
      let found = ref None in
      let lo = ref 0 and hi = ref (Array.length rs - 1) in
      while !lo <= !hi do
        let mid = (!lo + !hi) / 2 in
        let r = rs.(mid) in
        if Int64.compare pc r.r_base < 0 then hi := mid - 1
        else begin
          if in_region r pc then found := Some r;
          lo := mid + 1
        end
      done;
      (match !found with Some _ -> t.last_region <- !found | None -> ());
      !found

exception Stopped of stop

let fault msg addr = raise (Stopped (Fault (msg, addr)))

let decode_at t pc =
  let b0 = Mem.read16 t.mem pc in
  if Decode.length_of_halfword b0 = 2 then Decode.decode_compressed b0
  else Decode.decode_word (b0 lor (Mem.read16 t.mem (Int64.add pc 2L) lsl 16))

let fetch t pc =
  if Int64.logand pc 1L <> 0L then fault "misaligned pc" pc;
  match find_region t pc with
  | Some r -> (
      let slot = Int64.to_int (Int64.sub pc r.r_base) / 2 in
      match r.slots.(slot) with
      | Some i -> i
      | None -> (
          match decode_at t pc with
          | Some i ->
              r.slots.(slot) <- Some i;
              i
          | None -> fault "undecodable instruction" pc))
  | None -> (
      match decode_at t pc with
      | Some i -> i
      | None -> fault "undecodable instruction" pc)

(* --- FP helpers (shared with Sailsem.Eval via Riscv.Fpu) ---------------- *)

let nan_box32 = Fpu.nan_box32
let unbox32 = Fpu.unbox32
let fclass = Fpu.fclass
let fcvt_to_int64 = Fpu.fcvt_to_int64
let u64_to_float = Fpu.u64_to_float
let mulhu = Fpu.mulhu
let mulh = Fpu.mulh
let mulhsu = Fpu.mulhsu

let read_f32 t r = Fpu.f32_of_bits (unbox32 t.fregs.(r))
let read_f64 t r = Fpu.f64_of_bits t.fregs.(r)
let write_f32 t r f = t.fregs.(r) <- nan_box32 (Fpu.bits_of_f32 f)
let write_f64 t r f = t.fregs.(r) <- Fpu.bits_of_f64 f

(* --- CSRs ---------------------------------------------------------------- *)

(* Unimplemented CSR numbers raise (and the interpreter converts the
   exception into an illegal-instruction [Fault] at the faulting pc)
   instead of reading 0 / dropping the write: a profiler that programs
   the wrong counter must fail loudly, not read garbage. *)
exception Illegal_csr of int

(* mhpmcounter3..9 (0xB03..0xB09), user read-only aliases hpmcounter3..9
   (0xC03..0xC09), selectors mhpmevent3..9 (0x323..0x329) *)
let hpm_index base csr =
  let k = csr - base in
  if k >= 0 && k < n_hpm_counters then Some k else None

let csr_read t csr =
  match csr with
  | 0x001 -> Int64.of_int (t.fcsr land 0x1F) (* fflags *)
  | 0x002 -> Int64.of_int ((t.fcsr lsr 5) land 0x7) (* frm *)
  | 0x003 -> Int64.of_int t.fcsr
  | 0x340 -> t.mscratch
  | 0xC00 | 0xB00 -> t.cycles (* cycle / mcycle *)
  | 0xC01 -> Cost.cycles_to_ns t.model t.cycles (* time, as ns *)
  | 0xC02 | 0xB02 -> t.instret (* instret / minstret *)
  | _ -> (
      match hpm_index 0xC03 csr with
      | Some k -> t.hpm.(k)
      | None -> (
          match hpm_index 0xB03 csr with
          | Some k -> t.hpm.(k)
          | None -> (
              match hpm_index 0x323 csr with
              | Some k -> Int64.of_int (Cost.selector_of_event t.hpm_event.(k))
              | None -> raise (Illegal_csr csr))))

let refresh_hpm_active t =
  t.hpm_active <- Array.exists (fun e -> e <> Cost.Ev_off) t.hpm_event;
  (* Pack the seven selectors into one comparable int (selectors are
     0..6, so base 8 is lossless).  Blocks record the signature they
     were translated under; a mismatch marks them observability-stale. *)
  let s = ref 0 in
  Array.iter (fun e -> s := (!s * 8) + Cost.selector_of_event e) t.hpm_event;
  t.hpm_sig <- !s

let csr_write t csr v =
  match csr with
  | 0x001 -> t.fcsr <- (t.fcsr land lnot 0x1F) lor (Int64.to_int v land 0x1F)
  | 0x002 -> t.fcsr <- (t.fcsr land 0x1F) lor ((Int64.to_int v land 0x7) lsl 5)
  | 0x003 -> t.fcsr <- Int64.to_int v land 0xFF
  | 0x340 -> t.mscratch <- v
  | 0xB00 -> t.cycles <- v
  | 0xB02 -> t.instret <- v
  (* user-mode counter aliases are read-only; writes are ignored (our
     single-privilege machine has no lower mode to trap them into) *)
  | 0xC00 | 0xC01 | 0xC02 -> ()
  | _ -> (
      match hpm_index 0xC03 csr with
      | Some _ -> ()
      | None -> (
          match hpm_index 0xB03 csr with
          | Some k -> t.hpm.(k) <- v
          | None -> (
              match hpm_index 0x323 csr with
              | Some k -> (
                  match Cost.event_of_selector (Int64.to_int v) with
                  | Some ev ->
                      t.hpm_event.(k) <- ev;
                      refresh_hpm_active t
                  | None -> raise (Illegal_csr csr))
              | None -> raise (Illegal_csr csr))))

(* --- the interpreter ----------------------------------------------------- *)

(* Execute the side effects of one decoded instruction at [pc]: registers,
   memory, CSRs — everything except pc assignment and retire accounting
   (instret, HPM, cycles, timer), which the caller owns.  Returns the
   next pc and whether a control transfer was taken.  This is the single
   source of op semantics: the interpreter retires through it directly
   and the block engine uses it as the generic micro-op for every
   instruction it does not hand-specialize, so the two paths cannot
   drift. *)
let exec_op t (i : Insn.t) ~pc : int64 * bool =
  let next = Int64.add pc (Int64.of_int i.Insn.len) in
  let rs1 () = get_reg t i.rs1 in
  let rs2 () = get_reg t i.rs2 in
  let wr v = set_reg t i.rd v in
  let sx32 = Bits.to_int32_sx in
  let shamt64 v = Int64.to_int (Int64.logand v 0x3FL) in
  let shamt32 v = Int64.to_int (Int64.logand v 0x1FL) in
  let mut_pc = ref next in
  let taken = ref false in
  let branch cond =
    if cond then begin
      mut_pc := Int64.add pc i.imm;
      taken := true
    end
  in
  let addr () = Int64.add (rs1 ()) i.imm in
  let f1s () = read_f32 t i.rs1 and f2s () = read_f32 t i.rs2 in
  let f1d () = read_f64 t i.rs1 and f2d () = read_f64 t i.rs2 in
  let f3s () = read_f32 t i.rs3 and f3d () = read_f64 t i.rs3 in
  let wrs f = write_f32 t i.rd f and wrd f = write_f64 t i.rd f in
  (match i.op with
  | Op.LUI -> wr i.imm
  | Op.AUIPC -> wr (Int64.add pc i.imm)
  | Op.JAL ->
      wr next;
      mut_pc := Int64.add pc i.imm;
      taken := true
  | Op.JALR ->
      let target = Int64.logand (Int64.add (rs1 ()) i.imm) (Int64.lognot 1L) in
      wr next;
      mut_pc := target;
      taken := true
  | Op.BEQ -> branch (Int64.equal (rs1 ()) (rs2 ()))
  | Op.BNE -> branch (not (Int64.equal (rs1 ()) (rs2 ())))
  | Op.BLT -> branch (Int64.compare (rs1 ()) (rs2 ()) < 0)
  | Op.BGE -> branch (Int64.compare (rs1 ()) (rs2 ()) >= 0)
  | Op.BLTU -> branch (Int64.unsigned_compare (rs1 ()) (rs2 ()) < 0)
  | Op.BGEU -> branch (Int64.unsigned_compare (rs1 ()) (rs2 ()) >= 0)
  | Op.LB -> wr (Int64.of_int (Bits.sign_extend (Mem.read8 t.mem (addr ())) 8))
  | Op.LBU -> wr (Int64.of_int (Mem.read8 t.mem (addr ())))
  | Op.LH -> wr (Int64.of_int (Bits.sign_extend (Mem.read16 t.mem (addr ())) 16))
  | Op.LHU -> wr (Int64.of_int (Mem.read16 t.mem (addr ())))
  | Op.LW -> wr (sx32 (Int64.of_int (Mem.read32 t.mem (addr ()))))
  | Op.LWU -> wr (Int64.of_int (Mem.read32 t.mem (addr ())))
  | Op.LD -> wr (Mem.read64 t.mem (addr ()))
  | Op.SB -> Mem.write8 t.mem (addr ()) (Int64.to_int (Int64.logand (rs2 ()) 0xFFL))
  | Op.SH -> Mem.write16 t.mem (addr ()) (Int64.to_int (Int64.logand (rs2 ()) 0xFFFFL))
  | Op.SW -> Mem.write32 t.mem (addr ()) (Int64.to_int (Int64.logand (rs2 ()) 0xFFFF_FFFFL))
  | Op.SD -> Mem.write64 t.mem (addr ()) (rs2 ())
  | Op.ADDI -> wr (Int64.add (rs1 ()) i.imm)
  | Op.SLTI -> wr (if Int64.compare (rs1 ()) i.imm < 0 then 1L else 0L)
  | Op.SLTIU -> wr (if Int64.unsigned_compare (rs1 ()) i.imm < 0 then 1L else 0L)
  | Op.XORI -> wr (Int64.logxor (rs1 ()) i.imm)
  | Op.ORI -> wr (Int64.logor (rs1 ()) i.imm)
  | Op.ANDI -> wr (Int64.logand (rs1 ()) i.imm)
  | Op.SLLI -> wr (Int64.shift_left (rs1 ()) (Insn.imm_int i))
  | Op.SRLI -> wr (Int64.shift_right_logical (rs1 ()) (Insn.imm_int i))
  | Op.SRAI -> wr (Int64.shift_right (rs1 ()) (Insn.imm_int i))
  | Op.ADD -> wr (Int64.add (rs1 ()) (rs2 ()))
  | Op.SUB -> wr (Int64.sub (rs1 ()) (rs2 ()))
  | Op.SLL -> wr (Int64.shift_left (rs1 ()) (shamt64 (rs2 ())))
  | Op.SLT -> wr (if Int64.compare (rs1 ()) (rs2 ()) < 0 then 1L else 0L)
  | Op.SLTU -> wr (if Int64.unsigned_compare (rs1 ()) (rs2 ()) < 0 then 1L else 0L)
  | Op.XOR -> wr (Int64.logxor (rs1 ()) (rs2 ()))
  | Op.SRL -> wr (Int64.shift_right_logical (rs1 ()) (shamt64 (rs2 ())))
  | Op.SRA -> wr (Int64.shift_right (rs1 ()) (shamt64 (rs2 ())))
  | Op.OR -> wr (Int64.logor (rs1 ()) (rs2 ()))
  | Op.AND -> wr (Int64.logand (rs1 ()) (rs2 ()))
  | Op.ADDIW -> wr (sx32 (Int64.add (rs1 ()) i.imm))
  | Op.SLLIW -> wr (sx32 (Int64.shift_left (rs1 ()) (Insn.imm_int i)))
  | Op.SRLIW ->
      wr (sx32 (Int64.shift_right_logical (Bits.to_uint32 (rs1 ())) (Insn.imm_int i)))
  | Op.SRAIW -> wr (sx32 (Int64.shift_right (sx32 (rs1 ())) (Insn.imm_int i)))
  | Op.ADDW -> wr (sx32 (Int64.add (rs1 ()) (rs2 ())))
  | Op.SUBW -> wr (sx32 (Int64.sub (rs1 ()) (rs2 ())))
  | Op.SLLW -> wr (sx32 (Int64.shift_left (rs1 ()) (shamt32 (rs2 ()))))
  | Op.SRLW ->
      wr (sx32 (Int64.shift_right_logical (Bits.to_uint32 (rs1 ())) (shamt32 (rs2 ()))))
  | Op.SRAW -> wr (sx32 (Int64.shift_right (sx32 (rs1 ())) (shamt32 (rs2 ()))))
  | Op.FENCE -> ()
  | Op.FENCE_I -> flush_icache t
  | Op.ECALL -> (
      match t.on_ecall t with
      | Ecall_continue -> ()
      | Ecall_exit code -> raise (Stopped (Exited code)))
  | Op.EBREAK -> raise (Stopped (Ebreak pc))
  | Op.CSRRW | Op.CSRRS | Op.CSRRC | Op.CSRRWI | Op.CSRRSI | Op.CSRRCI -> (
      try
      let old = csr_read t i.csr in
      let operand =
        match i.op with
        | Op.CSRRWI | Op.CSRRSI | Op.CSRRCI -> Int64.of_int i.rs1
        | _ -> rs1 ()
      in
      (match i.op with
      | Op.CSRRW | Op.CSRRWI -> csr_write t i.csr operand
      | Op.CSRRS | Op.CSRRSI ->
          if i.rs1 <> 0 then csr_write t i.csr (Int64.logor old operand)
      | _ -> if i.rs1 <> 0 then csr_write t i.csr (Int64.logand old (Int64.lognot operand)));
      wr old
      with Illegal_csr csr ->
        fault (Printf.sprintf "illegal csr 0x%x" csr) pc)
  | Op.MUL -> wr (Int64.mul (rs1 ()) (rs2 ()))
  | Op.MULH -> wr (mulh (rs1 ()) (rs2 ()))
  | Op.MULHSU -> wr (mulhsu (rs1 ()) (rs2 ()))
  | Op.MULHU -> wr (mulhu (rs1 ()) (rs2 ()))
  | Op.DIV ->
      let a = rs1 () and b = rs2 () in
      wr
        (if Int64.equal b 0L then Int64.minus_one
         else if Int64.equal a Int64.min_int && Int64.equal b Int64.minus_one then a
         else Int64.div a b)
  | Op.DIVU ->
      let a = rs1 () and b = rs2 () in
      wr (if Int64.equal b 0L then Int64.minus_one else Int64.unsigned_div a b)
  | Op.REM ->
      let a = rs1 () and b = rs2 () in
      wr
        (if Int64.equal b 0L then a
         else if Int64.equal a Int64.min_int && Int64.equal b Int64.minus_one then 0L
         else Int64.rem a b)
  | Op.REMU ->
      let a = rs1 () and b = rs2 () in
      wr (if Int64.equal b 0L then a else Int64.unsigned_rem a b)
  | Op.MULW -> wr (sx32 (Int64.mul (rs1 ()) (rs2 ())))
  | Op.DIVW ->
      let a = sx32 (rs1 ()) and b = sx32 (rs2 ()) in
      wr
        (if Int64.equal b 0L then Int64.minus_one
         else if Int64.equal a (-2147483648L) && Int64.equal b Int64.minus_one then a
         else sx32 (Int64.div a b))
  | Op.DIVUW ->
      let a = Bits.to_uint32 (rs1 ()) and b = Bits.to_uint32 (rs2 ()) in
      wr (if Int64.equal b 0L then Int64.minus_one else sx32 (Int64.div a b))
  | Op.REMW ->
      let a = sx32 (rs1 ()) and b = sx32 (rs2 ()) in
      wr
        (if Int64.equal b 0L then a
         else if Int64.equal a (-2147483648L) && Int64.equal b Int64.minus_one then 0L
         else sx32 (Int64.rem a b))
  | Op.REMUW ->
      let a = Bits.to_uint32 (rs1 ()) and b = Bits.to_uint32 (rs2 ()) in
      wr (if Int64.equal b 0L then sx32 a else sx32 (Int64.rem a b))
  | Op.LR_W ->
      let a = rs1 () in
      t.reservation <- Some a;
      wr (sx32 (Int64.of_int (Mem.read32 t.mem a)))
  | Op.LR_D ->
      let a = rs1 () in
      t.reservation <- Some a;
      wr (Mem.read64 t.mem a)
  | Op.SC_W ->
      let a = rs1 () in
      if t.reservation = Some a then begin
        Mem.write32 t.mem a (Int64.to_int (Int64.logand (rs2 ()) 0xFFFF_FFFFL));
        t.reservation <- None;
        wr 0L
      end
      else wr 1L
  | Op.SC_D ->
      let a = rs1 () in
      if t.reservation = Some a then begin
        Mem.write64 t.mem a (rs2 ());
        t.reservation <- None;
        wr 0L
      end
      else wr 1L
  | op when Op.is_amo op ->
      let a = rs1 () in
      let width = Op.access_size op in
      let old =
        if width = 4 then sx32 (Int64.of_int (Mem.read32 t.mem a))
        else Mem.read64 t.mem a
      in
      let v = rs2 () in
      let v = if width = 4 then sx32 v else v in
      let result =
        match op with
        | Op.AMOSWAP_W | Op.AMOSWAP_D -> v
        | Op.AMOADD_W | Op.AMOADD_D -> Int64.add old v
        | Op.AMOXOR_W | Op.AMOXOR_D -> Int64.logxor old v
        | Op.AMOAND_W | Op.AMOAND_D -> Int64.logand old v
        | Op.AMOOR_W | Op.AMOOR_D -> Int64.logor old v
        | Op.AMOMIN_W | Op.AMOMIN_D -> if Int64.compare old v < 0 then old else v
        | Op.AMOMAX_W | Op.AMOMAX_D -> if Int64.compare old v > 0 then old else v
        | Op.AMOMINU_W | Op.AMOMINU_D ->
            if Int64.unsigned_compare old v < 0 then old else v
        | _ -> if Int64.unsigned_compare old v > 0 then old else v
      in
      if width = 4 then
        Mem.write32 t.mem a (Int64.to_int (Int64.logand result 0xFFFF_FFFFL))
      else Mem.write64 t.mem a result;
      wr old
  (* --- F/D extension --- *)
  | Op.FLW -> set_freg t i.rd (nan_box32 (Mem.read32 t.mem (addr ())))
  | Op.FLD -> set_freg t i.rd (Mem.read64 t.mem (addr ()))
  | Op.FSW -> Mem.write32 t.mem (addr ()) (unbox32 (get_freg t i.rs2))
  | Op.FSD -> Mem.write64 t.mem (addr ()) (get_freg t i.rs2)
  | Op.FADD_S -> wrs (f1s () +. f2s ())
  | Op.FSUB_S -> wrs (f1s () -. f2s ())
  | Op.FMUL_S -> wrs (f1s () *. f2s ())
  | Op.FDIV_S -> wrs (f1s () /. f2s ())
  | Op.FSQRT_S -> wrs (Float.sqrt (f1s ()))
  | Op.FMADD_S -> wrs (Float.fma (f1s ()) (f2s ()) (f3s ()))
  | Op.FMSUB_S -> wrs (Float.fma (f1s ()) (f2s ()) (-.f3s ()))
  | Op.FNMSUB_S -> wrs (Float.fma (-.f1s ()) (f2s ()) (f3s ()))
  | Op.FNMADD_S -> wrs (Float.fma (-.f1s ()) (f2s ()) (-.f3s ()))
  | Op.FADD_D -> wrd (f1d () +. f2d ())
  | Op.FSUB_D -> wrd (f1d () -. f2d ())
  | Op.FMUL_D -> wrd (f1d () *. f2d ())
  | Op.FDIV_D -> wrd (f1d () /. f2d ())
  | Op.FSQRT_D -> wrd (Float.sqrt (f1d ()))
  | Op.FMADD_D -> wrd (Float.fma (f1d ()) (f2d ()) (f3d ()))
  | Op.FMSUB_D -> wrd (Float.fma (f1d ()) (f2d ()) (-.f3d ()))
  | Op.FNMSUB_D -> wrd (Float.fma (-.f1d ()) (f2d ()) (f3d ()))
  | Op.FNMADD_D -> wrd (Float.fma (-.f1d ()) (f2d ()) (-.f3d ()))
  | Op.FSGNJ_S | Op.FSGNJN_S | Op.FSGNJX_S ->
      let a = unbox32 t.fregs.(i.rs1) and b = unbox32 t.fregs.(i.rs2) in
      let sign_b = b land 0x8000_0000 in
      let sign =
        match i.op with
        | Op.FSGNJ_S -> sign_b
        | Op.FSGNJN_S -> sign_b lxor 0x8000_0000
        | _ -> (a land 0x8000_0000) lxor sign_b
      in
      set_freg t i.rd (nan_box32 ((a land 0x7FFF_FFFF) lor sign))
  | Op.FSGNJ_D | Op.FSGNJN_D | Op.FSGNJX_D ->
      let a = t.fregs.(i.rs1) and b = t.fregs.(i.rs2) in
      let sign_b = Int64.logand b Int64.min_int in
      let sign =
        match i.op with
        | Op.FSGNJ_D -> sign_b
        | Op.FSGNJN_D -> Int64.logxor sign_b Int64.min_int
        | _ -> Int64.logxor (Int64.logand a Int64.min_int) sign_b
      in
      set_freg t i.rd (Int64.logor (Int64.logand a Int64.max_int) sign)
  | Op.FMIN_S -> wrs (Float.min_num (f1s ()) (f2s ()))
  | Op.FMAX_S -> wrs (Float.max_num (f1s ()) (f2s ()))
  | Op.FMIN_D -> wrd (Float.min_num (f1d ()) (f2d ()))
  | Op.FMAX_D -> wrd (Float.max_num (f1d ()) (f2d ()))
  | Op.FEQ_S -> wr (if f1s () = f2s () then 1L else 0L)
  | Op.FLT_S -> wr (if f1s () < f2s () then 1L else 0L)
  | Op.FLE_S -> wr (if f1s () <= f2s () then 1L else 0L)
  | Op.FEQ_D -> wr (if f1d () = f2d () then 1L else 0L)
  | Op.FLT_D -> wr (if f1d () < f2d () then 1L else 0L)
  | Op.FLE_D -> wr (if f1d () <= f2d () then 1L else 0L)
  | Op.FCLASS_S -> wr (Int64.of_int (fclass (f1s ())))
  | Op.FCLASS_D -> wr (Int64.of_int (fclass (f1d ())))
  | Op.FCVT_W_S -> wr (sx32 (fcvt_to_int64 ~rm:i.rm ~signed:true ~width:32 (f1s ())))
  | Op.FCVT_WU_S -> wr (sx32 (fcvt_to_int64 ~rm:i.rm ~signed:false ~width:32 (f1s ())))
  | Op.FCVT_L_S -> wr (fcvt_to_int64 ~rm:i.rm ~signed:true ~width:64 (f1s ()))
  | Op.FCVT_LU_S -> wr (fcvt_to_int64 ~rm:i.rm ~signed:false ~width:64 (f1s ()))
  | Op.FCVT_W_D -> wr (sx32 (fcvt_to_int64 ~rm:i.rm ~signed:true ~width:32 (f1d ())))
  | Op.FCVT_WU_D -> wr (sx32 (fcvt_to_int64 ~rm:i.rm ~signed:false ~width:32 (f1d ())))
  | Op.FCVT_L_D -> wr (fcvt_to_int64 ~rm:i.rm ~signed:true ~width:64 (f1d ()))
  | Op.FCVT_LU_D -> wr (fcvt_to_int64 ~rm:i.rm ~signed:false ~width:64 (f1d ()))
  | Op.FCVT_S_W -> wrs (Int64.to_float (sx32 (rs1 ())))
  | Op.FCVT_S_WU -> wrs (Int64.to_float (Bits.to_uint32 (rs1 ())))
  | Op.FCVT_S_L -> wrs (Int64.to_float (rs1 ()))
  | Op.FCVT_S_LU -> wrs (u64_to_float (rs1 ()))
  | Op.FCVT_D_W -> wrd (Int64.to_float (sx32 (rs1 ())))
  | Op.FCVT_D_WU -> wrd (Int64.to_float (Bits.to_uint32 (rs1 ())))
  | Op.FCVT_D_L -> wrd (Int64.to_float (rs1 ()))
  | Op.FCVT_D_LU -> wrd (u64_to_float (rs1 ()))
  | Op.FCVT_S_D -> wrs (f1d ())
  | Op.FCVT_D_S -> wrd (f1s ())
  | Op.FMV_X_W -> wr (sx32 (Int64.of_int (unbox32 t.fregs.(i.rs1))))
  | Op.FMV_W_X ->
      set_freg t i.rd (nan_box32 (Int64.to_int (Int64.logand (rs1 ()) 0xFFFF_FFFFL)))
  | Op.FMV_X_D -> wr t.fregs.(i.rs1)
  | Op.FMV_D_X -> set_freg t i.rd (rs1 ())
  (* Zba *)
  | Op.SH1ADD -> wr (Int64.add (rs2 ()) (Int64.shift_left (rs1 ()) 1))
  | Op.SH2ADD -> wr (Int64.add (rs2 ()) (Int64.shift_left (rs1 ()) 2))
  | Op.SH3ADD -> wr (Int64.add (rs2 ()) (Int64.shift_left (rs1 ()) 3))
  | Op.ADD_UW -> wr (Int64.add (rs2 ()) (Bits.to_uint32 (rs1 ())))
  | Op.SH1ADD_UW ->
      wr (Int64.add (rs2 ()) (Int64.shift_left (Bits.to_uint32 (rs1 ())) 1))
  | Op.SH2ADD_UW ->
      wr (Int64.add (rs2 ()) (Int64.shift_left (Bits.to_uint32 (rs1 ())) 2))
  | Op.SH3ADD_UW ->
      wr (Int64.add (rs2 ()) (Int64.shift_left (Bits.to_uint32 (rs1 ())) 3))
  | Op.SLLI_UW -> wr (Int64.shift_left (Bits.to_uint32 (rs1 ())) (Insn.imm_int i))
  (* Zbb *)
  | Op.ANDN -> wr (Int64.logand (rs1 ()) (Int64.lognot (rs2 ())))
  | Op.ORN -> wr (Int64.logor (rs1 ()) (Int64.lognot (rs2 ())))
  | Op.XNOR -> wr (Int64.lognot (Int64.logxor (rs1 ()) (rs2 ())))
  | Op.CLZ -> wr (Bitmanip.clz64 (rs1 ()))
  | Op.CTZ -> wr (Bitmanip.ctz64 (rs1 ()))
  | Op.CPOP -> wr (Bitmanip.cpop64 (rs1 ()))
  | Op.CLZW -> wr (Bitmanip.clz32 (rs1 ()))
  | Op.CTZW -> wr (Bitmanip.ctz32 (rs1 ()))
  | Op.CPOPW -> wr (Bitmanip.cpop32 (rs1 ()))
  | Op.MAX -> wr (Bitmanip.max_s (rs1 ()) (rs2 ()))
  | Op.MAXU -> wr (Bitmanip.max_u (rs1 ()) (rs2 ()))
  | Op.MIN -> wr (Bitmanip.min_s (rs1 ()) (rs2 ()))
  | Op.MINU -> wr (Bitmanip.min_u (rs1 ()) (rs2 ()))
  | Op.SEXT_B -> wr (Int64.of_int (Bits.sign_extend (Int64.to_int (Int64.logand (rs1 ()) 0xFFL)) 8))
  | Op.SEXT_H -> wr (Int64.of_int (Bits.sign_extend (Int64.to_int (Int64.logand (rs1 ()) 0xFFFFL)) 16))
  | Op.ZEXT_H -> wr (Int64.logand (rs1 ()) 0xFFFFL)
  | Op.ROL -> wr (Bitmanip.rol64 (rs1 ()) (rs2 ()))
  | Op.ROR -> wr (Bitmanip.ror64 (rs1 ()) (rs2 ()))
  | Op.RORI -> wr (Bitmanip.ror64 (rs1 ()) i.imm)
  | Op.ROLW -> wr (Bitmanip.rolw (rs1 ()) (rs2 ()))
  | Op.RORW -> wr (Bitmanip.rorw (rs1 ()) (rs2 ()))
  | Op.RORIW -> wr (Bitmanip.rorw (rs1 ()) i.imm)
  | Op.REV8 -> wr (Bitmanip.rev8 (rs1 ()))
  | Op.ORC_B -> wr (Bitmanip.orc_b (rs1 ()))
  | op ->
      fault (Printf.sprintf "unimplemented op %s" (Op.mnemonic op)) pc);
  (!mut_pc, !taken)

(* Retire accounting for one executed instruction: instret, HPM events,
   cycle cost, sampling-timer deadline.  Shared between the interpreter
   and the block engine's terminator path. *)
let retire t (i : Insn.t) ~taken =
  t.instret <- Int64.add t.instret 1L;
  if t.hpm_active then
    for k = 0 to n_hpm_counters - 1 do
      if Cost.counts_event t.hpm_event.(k) i ~taken then
        t.hpm.(k) <- Int64.add t.hpm.(k) 1L
    done;
  let c = t.model.Cost.cost i.op in
  let c = if taken then c + t.model.Cost.taken_branch_penalty else c in
  t.cycles <- Int64.add t.cycles (Int64.of_int c);
  (* the deterministic sampling timer: fires between retired
     instructions, once per deadline crossing *)
  if Int64.compare t.timer_period 0L > 0
     && Int64.compare t.cycles t.timer_deadline >= 0
  then begin
    (match t.on_timer with Some f -> f t | None -> ());
    (* re-arm relative to *current* cycles (the hook may charge a
       sample cost), so the period is honored even after a long-latency
       instruction overshoots the deadline *)
    if Int64.compare t.timer_period 0L > 0 then
      t.timer_deadline <- Int64.add t.cycles t.timer_period
  end

let exec_step t =
  let pc = t.pc in
  let i = fetch t pc in
  (match t.trace with Some f -> f pc i | None -> ());
  let next_pc, taken = exec_op t i ~pc in
  t.pc <- next_pc;
  retire t i ~taken

(* Arm the cycle-based sampling timer: [fn] runs between instructions
   every [period] simulated cycles (ProcControlAPI plumbs this to
   PerfAPI's sample hook). *)
let set_timer t ~period fn =
  if Int64.compare period 0L <= 0 then invalid_arg "Machine.set_timer: period";
  t.timer_period <- period;
  t.timer_deadline <- Int64.add t.cycles period;
  t.on_timer <- Some fn

let clear_timer t =
  t.timer_period <- 0L;
  t.on_timer <- None

(* Single step; returns [None] if the machine can continue.  Always the
   precise interpreter — ProcControl breakpoints and the lockstep oracle
   depend on exact per-instruction semantics. *)
let step t : stop option =
  match exec_step t with
  | () -> None
  | exception Stopped s -> Some s
  | exception Mem.Fault a -> Some (Fault ("memory fault", a))

(* Run until a stop event or [max_steps] on the per-instruction
   interpreter. *)
let run_interp ?(max_steps = max_int) t : stop =
  let rec go n =
    if n >= max_steps then Limit
    else
      match exec_step t with
      | () -> go (n + 1)
      | exception Stopped s -> s
      | exception Mem.Fault a -> Fault ("memory fault", a)
  in
  go 0

(* Bbcache registers its block engine here at module initialization.
   The indirection keeps Machine below Bbcache in the compilation order;
   rvsim is linked with -linkall so the registration always happens in
   executables that only reach Machine.run. *)
let block_engine : (max_steps:int -> t -> stop) option ref = ref None
let install_block_engine f = block_engine := Some f

(* Run until a stop event or [max_steps].  Dispatches to the superblock
   engine unless the machine opted into [Eng_interp]; both engines
   produce identical architectural state, cycles, instret, HPM counts
   and timer firing points (rvcheck's engine mode proves it). *)
let run ?(max_steps = max_int) t : stop =
  match (t.engine, !block_engine) with
  | Eng_block, Some f -> f ~max_steps t
  | _ -> run_interp ~max_steps t

let pp_stop fmt = function
  | Exited c -> Format.fprintf fmt "exited(%d)" c
  | Ebreak pc -> Format.fprintf fmt "ebreak@0x%Lx" pc
  | Fault (m, a) -> Format.fprintf fmt "fault(%s)@0x%Lx" m a
  | Limit -> Format.fprintf fmt "step-limit"
