(** PatchAPI's snippet-insertion engine (paper §2.2, §3.1.2, Figure 1).

    Insertions are collected per basic block; {!plan} generates, for each
    instrumented block, a relocated copy in the patch area with the
    snippet code woven in, and chooses a springboard to overwrite the
    original block with:

    - [c.j] — 2 bytes, reach ±2KB (needs the C extension);
    - [jal] — 4 bytes, reach ±1MB;
    - [auipc+jalr] — 8 bytes, full reach, consumes a dead register;
    - a 2-byte trap ([c.ebreak]) as the last resort for blocks too small
      for any jump, resolved at run time through a trap map (the paper's
      "inefficient 2-byte trap instructions").

    The same plan can be applied to the ELF image (static rewriting,
    {!rewrite}) or written into a live process (dynamic instrumentation,
    see [Core.instrument_process]). *)

exception Patch_error of string

type strategy = Sp_cj | Sp_jal | Sp_auipc_jalr | Sp_trap

val strategy_name : strategy -> string

type stats = {
  mutable n_points : int;
  mutable n_dead_alloc : int;
      (** snippets served entirely by dead registers (no spill) *)
  mutable n_spilled : int;  (** snippets that had to save/restore *)
  mutable strategies : (int64 * strategy) list;
      (** springboard chosen per instrumented block *)
}

type t

(** [create symtab cfg] starts a rewriting session.
    [tramp_base] overrides patch-area placement (default: the first
    usable gap after the code region, keeping springboards in jal range).
    [use_dead_regs:false] forces spilling at every point — the §4.3
    ablation reproducing pre-optimization x86 behaviour. *)
val create : ?tramp_base:int64 -> ?use_dead_regs:bool -> Symtab.t -> Parse_api.Cfg.t -> t

(** Allocate an instrumentation variable (size 1/2/4/8 bytes) in the
    patch data area. *)
val allocate_var : t -> string -> int -> Codegen_api.Snippet.var

(** Allocate an unstructured [size]-byte block in the patch data area
    ([align] must be a power of two); TraceAPI's ring buffers live here.
    Returns the block's absolute address. *)
val allocate_raw : t -> string -> size:int -> align:int -> int64

(** Request snippet insertion at a point — the paper's (P, AST) tuple. *)
val insert : t -> Point.t -> Codegen_api.Snippet.stmt list -> unit

(** An instrumentation plan, target-independent. *)
type plan = {
  pl_tramp_base : int64;
  pl_tramp_code : Bytes.t;
  pl_patches : (int64 * Bytes.t) list;
  pl_zeroed : (int64 * int) list;
  pl_data_base : int64;
  pl_data_size : int;
  pl_traps : (int64 * int64) list;
}

(** Generate code for every pending insertion. *)
val plan : t -> plan

(** Apply a plan to the original image: static binary rewriting. *)
val apply_to_image : t -> plan -> Elfkit.Types.image

(** [plan] + [apply_to_image] in one step. *)
val rewrite : t -> Elfkit.Types.image

(** The manifest of the last {!plan} (springboards, trampolines, §4.3
    register claims) — [None] until a plan has been generated. *)
val manifest : t -> Manifest.t option

val stats : t -> stats

(** Springboard strategy histogram, in preference order. *)
val strategy_mix : stats -> (strategy * int) list

(** Number of points that fell back to 2-byte trap springboards. *)
val n_traps : stats -> int

(** Human-readable one-run summary: point count, dead-register vs spill
    mix, and the springboard histogram. *)
val pp_stats : Format.formatter -> stats -> unit

(**/**)

val springboard :
  t ->
  Parse_api.Cfg.block ->
  int64 ->
  dead:Riscv.Reg.t list ->
  Bytes.t * strategy * Riscv.Reg.t option

val wrap_snippet :
  t ->
  dead:Riscv.Reg.t list ->
  Codegen_api.Snippet.stmt list ->
  Riscv.Asm.item list * Riscv.Reg.t list * bool

val default_tramp_base : Symtab.t -> data_base:int64 -> int64

(** {2 Cacheable batch entry point} *)

(** A declarative counter-instrumentation request over function names —
    a whole rewrite as a pure function of (symtab, cfg, spec), keyed by
    the rvserved artifact cache. *)
type counter_spec = {
  cs_entries : string list;  (** count entries of each function *)
  cs_blocks : string list;  (** count every block of each function *)
  cs_exits : string list;  (** count returns of each function *)
}

val counter_spec :
  ?entries:string list ->
  ?blocks:string list ->
  ?exits:string list ->
  unit ->
  counter_spec

(** Canonical one-line rendering, stable under list reordering — the
    spec's contribution to the cache key. *)
val spec_key : counter_spec -> string

(** Create a session, apply the spec, plan and apply, returning only
    immutable results.  The cfg is only read.  Raises {!Patch_error} on
    an unknown function name. *)
val instrument_counters :
  ?tramp_base:int64 ->
  ?use_dead_regs:bool ->
  Symtab.t ->
  Parse_api.Cfg.t ->
  counter_spec ->
  Elfkit.Types.image * Manifest.t option * stats
