(** The RV64GC machine: state and interpreter — the hardware substitute
    for the paper's SiFive P550 (see DESIGN.md substitutions).

    Decoded instructions are cached per executable region;
    {!flush_icache} (triggered by FENCE.I and by ProcControlAPI after
    patching code) invalidates the cache, mirroring what real
    instrumentation must do on hardware.

    Execution has two engines: the precise per-instruction interpreter
    ({!step}, {!run_interp}) and the superblock engine (Bbcache), which
    {!run} dispatches to by default.  Both retire identical
    architectural state, cycles, instret, HPM counts, trace-hook calls
    and timer firings (the block engine fuses observability into its
    translations); rvcheck's engine mode diffs them. *)

(** Why execution stopped. *)
type stop =
  | Exited of int
  | Ebreak of int64  (** pc of an ebreak (breakpoints, trap springboards) *)
  | Fault of string * int64
  | Limit  (** step budget exhausted *)

type ecall_action = Ecall_continue | Ecall_exit of int

(** Which engine {!run} uses; {!step} is always the precise interpreter. *)
type engine = Eng_block | Eng_interp

(** Number of programmable HPM counters (mhpmcounter3..9). *)
val n_hpm_counters : int

type region = {
  r_base : int64;
  r_size : int;
  slots : Riscv.Insn.t option array;  (** decode cache, one per halfword *)
  bslots : block option array;  (** superblock cache, same indexing *)
}

and t = {
  regs : int64 array;  (** x0..x31; x0 kept 0 *)
  fregs : int64 array;  (** raw f0..f31 bits, NaN-boxed singles *)
  mem : Mem.t;
  mutable pc : int64;
  mutable cycles : int64;  (** simulated cycles per the cost model *)
  mutable instret : int64;
  mutable fcsr : int;
  mutable mscratch : int64;
  hpm : int64 array;  (** mhpmcounter3..9 values *)
  hpm_event : Cost.event array;  (** per-counter selectors (mhpmevent3..9) *)
  mutable hpm_active : bool;
  mutable hpm_sig : int;
      (** packed selector signature; part of the block engine's
          observability cache key *)
  mutable reservation : int64 option;  (** LR/SC reservation *)
  mutable code_regions : region array;  (** base-sorted, disjoint *)
  mutable last_region : region option;
  mutable icache_gen : int;  (** bumped by {!flush_icache} *)
  mutable engine : engine;
  mutable on_ecall : t -> ecall_action;  (** the attached OS *)
  mutable trace : (int64 -> Riscv.Insn.t -> unit) option;
  mutable timer_period : int64;  (** sampling timer; 0 = disarmed *)
  mutable timer_deadline : int64;
  mutable on_timer : (t -> unit) option;
  model : Cost.model;
  mutable bb_live : int;  (** live translated blocks across all regions *)
  mutable bb_cap : int;
      (** superblock-cache residency cap, enforced CLOCK-style by the
          block engine; [<= 0] disables the bound *)
  bb_fifo : (region * int) Queue.t;  (** translation order, for eviction *)
  mutable bb_translated : int;
      (** block-engine event counts since the last publish: the engine
          bumps these fields, and {!run} moves them to the [sim.bb.*]
          registry counters before it returns *)
  mutable bb_blocks : int;
  mutable bb_chain_hits : int;
  mutable bb_retrans : int;
  mutable bb_timer_steps : int;
  mutable bb_singles : int;
  mutable bb_evicted : int;
}

(** A translated straight-line superblock: pre-bound micro-op closures
    for the body, retired with one instret/cycles add, ending just
    before a control-flow/system terminator that runs through the
    precise interpreter. *)
and block = {
  bk_pc : int64;
  bk_term_pc : int64;
  bk_term : Riscv.Insn.t option;
      (** terminator pre-decoded at translation; [None] = fetch at run time *)
  bk_ninsns : int;
  bk_cycles : int;
  bk_ops : (t -> unit) array;
  bk_gen : int;  (** icache_gen at translation; mismatch = stale *)
  bk_trace : (int64 -> Riscv.Insn.t -> unit) option;
      (** the trace hook fused into [bk_ops] ([None] = untraced build);
          compared by physical equality against the machine's hook *)
  bk_hpm_sig : int;  (** hpm_sig at translation; mismatch = stale *)
  bk_hpm_delta : int64 array option;
      (** precomputed body HPM deltas, [None] when no selector was armed *)
  bk_chainable : bool;
  mutable bk_c1 : (int64 * block) option;
  mutable bk_c2 : (int64 * block) option;
  mutable bk_hot : bool;  (** executed since last eviction scan (CLOCK bit) *)
}

val create : ?model:Cost.model -> unit -> t
val get_reg : t -> int -> int64
val set_reg : t -> int -> int64 -> unit
val get_freg : t -> int -> int64
val set_freg : t -> int -> int64 -> unit

(** Register an executable region so its decodes are cached. *)
val add_code_region : t -> base:int64 -> size:int -> region

(** Drop all cached decodes and translated blocks (FENCE.I semantics;
    call after patching); counts into the [sim.icache.flushes] registry
    counter. *)
val flush_icache : t -> unit

(** Raised by {!csr_read}/{!csr_write} for unimplemented CSR numbers or
    invalid selector values; the interpreter converts it into an
    illegal-instruction [Fault] at the executing pc. *)
exception Illegal_csr of int

(** Implemented CSRs: fflags/frm/fcsr (0x001..0x003), mscratch (0x340),
    cycle/time/instret (0xC00..0xC02, read-only), hpmcounter3..9
    (0xC03.., read-only), mcycle/minstret (0xB00/0xB02),
    mhpmcounter3..9 (0xB03..), mhpmevent3..9 (0x323.., values are
    {!Cost.event} selectors). *)
val csr_read : t -> int -> int64

val csr_write : t -> int -> int64 -> unit

(** Arm the deterministic cycle-based sampling timer: [fn] runs between
    retired instructions every [period] simulated cycles. *)
val set_timer : t -> period:int64 -> (t -> unit) -> unit

val clear_timer : t -> unit

(** Execute one instruction precisely; [Some stop] if the machine cannot
    continue. *)
val step : t -> stop option

(** Run until a stop event or [max_steps]; dispatches to the superblock
    engine unless [t.engine] is [Eng_interp]. *)
val run : ?max_steps:int -> t -> stop

(** Run on the per-instruction interpreter regardless of [t.engine]. *)
val run_interp : ?max_steps:int -> t -> stop

val pp_stop : Format.formatter -> stop -> unit

(**/**)

exception Stopped of stop

val exec_step : t -> unit
val exec_op : t -> Riscv.Insn.t -> pc:int64 -> int64 * bool
val retire : t -> Riscv.Insn.t -> taken:bool -> unit
val fetch : t -> int64 -> Riscv.Insn.t
val decode_at : t -> int64 -> Riscv.Insn.t option
val in_region : region -> int64 -> bool
val find_region : t -> int64 -> region option
val install_block_engine : (max_steps:int -> t -> stop) -> unit
