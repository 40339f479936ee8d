(* Static binary rewriting (paper Figure 1, left path; §3.2.5/§3.3).

   Snippet insertion takes (points, AST) pairs, generates native code for
   each instrumented block in a new executable section (the patch area),
   and overwrites each instrumented block's first bytes with a
   springboard jump.  The springboard strategy follows §3.1.2: the
   compressed c.j when it reaches and fits, a standard jal, an
   auipc+jalr pair when the patch area is out of jal range (consuming a
   dead register), and finally the 2-byte trap instruction for blocks
   too small for anything else — resolved at run time through a trap map
   (the rewritten binary's analogue of Dyninst's SIGTRAP handler). *)

open Riscv
open Parse_api
open Dataflow_api

let src = Logs.Src.create "patch_api"

module Log = (val Logs.src_log src : Logs.LOG)
module Obs = Dyn_obs.Registry
module Trace = Dyn_obs.Trace

let m_points = Obs.counter "patch.points"
let m_springboards = Obs.counter "patch.springboards"

exception Patch_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Patch_error s)) fmt

type strategy = Sp_cj | Sp_jal | Sp_auipc_jalr | Sp_trap

let strategy_name = function
  | Sp_cj -> "c.j"
  | Sp_jal -> "jal"
  | Sp_auipc_jalr -> "auipc+jalr"
  | Sp_trap -> "trap"

type request =
  | Before of int64 * Codegen_api.Snippet.stmt list
  | On_edge of int64 * Codegen_api.Snippet.stmt list

type stats = {
  mutable n_points : int;
  mutable n_dead_alloc : int; (* snippets served entirely by dead registers *)
  mutable n_spilled : int; (* snippets that had to save/restore *)
  mutable strategies : (int64 * strategy) list;
}

type t = {
  symtab : Symtab.t;
  cfg : Cfg.t;
  profile : Ext.profile;
  data_base : int64;
  mutable data_cursor : int;
  mutable vars : Codegen_api.Snippet.var list;
  tramp_base : int64;
  requests : (int64, request list) Hashtbl.t; (* block start -> requests *)
  use_dead_regs : bool; (* ablation switch for the §4.3 optimization *)
  stats : stats;
  mutable label_counter : int;
  mutable last_manifest : Manifest.t option; (* filled by [plan] *)
}

let image_end (symtab : Symtab.t) =
  List.fold_left
    (fun acc (r : Symtab.region) ->
      let e = Int64.add r.Symtab.rg_addr (Int64.of_int r.Symtab.rg_size) in
      if Int64.compare e acc > 0 then e else acc)
    0L (Symtab.regions symtab)

let data_area_size = 0x10000

(* Default patch-area placement: just after the (first) code region if a
   reasonable address-space gap follows it — keeping springboards within
   jal range (+-1MB) — otherwise after the whole image. *)
let default_tramp_base (symtab : Symtab.t) ~(data_base : int64) =
  match Symtab.code_regions symtab with
  | [] -> Dyn_util.Bits.align_up (Int64.add data_base (Int64.of_int data_area_size)) 0x1000
  | r :: _ ->
      let code_end =
        Int64.add r.Symtab.rg_addr (Int64.of_int r.Symtab.rg_size)
      in
      let candidate = Int64.add (Dyn_util.Bits.align_up code_end 0x1000) 0x1000L in
      let next_section =
        List.fold_left
          (fun acc (s : Symtab.region) ->
            if Int64.compare s.Symtab.rg_addr candidate >= 0
               && Int64.compare s.Symtab.rg_addr acc < 0
            then s.Symtab.rg_addr
            else acc)
          Int64.max_int (Symtab.regions symtab)
      in
      let next_section =
        if Int64.compare data_base candidate >= 0
           && Int64.compare data_base next_section < 0
        then data_base
        else next_section
      in
      if Int64.compare (Int64.sub next_section candidate) 0x40000L >= 0 then
        candidate
      else
        Dyn_util.Bits.align_up
          (Int64.add data_base (Int64.of_int data_area_size))
          0x1000

let create ?tramp_base ?(use_dead_regs = true) (symtab : Symtab.t)
    (cfg : Cfg.t) : t =
  let data_base = Dyn_util.Bits.align_up (image_end symtab) 0x1000 in
  let tramp_base =
    match tramp_base with
    | Some b -> b
    | None -> default_tramp_base symtab ~data_base
  in
  {
    symtab;
    cfg;
    profile = Symtab.profile symtab;
    data_base;
    data_cursor = 0;
    vars = [];
    tramp_base;
    requests = Hashtbl.create 32;
    use_dead_regs;
    stats = { n_points = 0; n_dead_alloc = 0; n_spilled = 0; strategies = [] };
    label_counter = 0;
    last_manifest = None;
  }

(* Allocate an instrumentation variable in the patch data area. *)
let allocate_var t name size =
  if size <> 1 && size <> 2 && size <> 4 && size <> 8 then
    fail "bad variable size %d" size;
  t.data_cursor <- (t.data_cursor + size - 1) land lnot (size - 1);
  if t.data_cursor + size > data_area_size then fail "patch data area full";
  let v =
    { Codegen_api.Snippet.v_name = name;
      v_addr = Int64.add t.data_base (Int64.of_int t.data_cursor);
      v_size = size }
  in
  t.data_cursor <- t.data_cursor + size;
  t.vars <- v :: t.vars;
  v

(* Allocate an unstructured block (e.g. a TraceAPI ring buffer) in the
   patch data area; returns its absolute address. *)
let allocate_raw t name ~size ~align =
  if size <= 0 then fail "bad raw allocation size %d" size;
  if align <= 0 || align land (align - 1) <> 0 then
    fail "bad raw allocation alignment %d" align;
  t.data_cursor <- (t.data_cursor + align - 1) land lnot (align - 1);
  if t.data_cursor + size > data_area_size then
    fail "patch data area full allocating %d bytes for %s" size name;
  let addr = Int64.add t.data_base (Int64.of_int t.data_cursor) in
  t.data_cursor <- t.data_cursor + size;
  addr

let add_request t block req =
  let cur = Option.value (Hashtbl.find_opt t.requests block) ~default:[] in
  Hashtbl.replace t.requests block (cur @ [ req ])

(* Insert [stmts] at [point]. *)
let insert t (p : Point.t) (stmts : Codegen_api.Snippet.stmt list) =
  t.stats.n_points <- t.stats.n_points + 1;
  match p.Point.p_kind with
  | Point.Edge_taken -> add_request t p.Point.p_block (On_edge (p.Point.p_addr, stmts))
  | Point.Loop_backedge -> (
      (* a back edge carried by a conditional branch is edge
         instrumentation; one carried by an unconditional jump is
         equivalent to before-terminator instrumentation *)
      match Cfg.block_at t.cfg p.Point.p_block with
      | Some b -> (
          match Cfg.last_insn b with
          | Some term when Op.is_cond_branch (Instruction.op term) ->
              add_request t p.Point.p_block (On_edge (p.Point.p_addr, stmts))
          | _ -> add_request t p.Point.p_block (Before (p.Point.p_addr, stmts)))
      | None -> fail "no block at 0x%Lx" p.Point.p_block)
  | Point.Func_entry | Point.Func_exit | Point.Call_site | Point.Block_entry
  | Point.Before_insn | Point.Loop_entry ->
      add_request t p.Point.p_block (Before (p.Point.p_addr, stmts))

(* --- snippet wrapping: dead registers or spill ---------------------------- *)

let spill_candidates =
  (* caller-saved temporaries first, then argument registers *)
  Reg.temp_regs @ List.rev Reg.arg_regs

let fresh_prefix t =
  t.label_counter <- t.label_counter + 1;
  Printf.sprintf "p%d" t.label_counter

(* Generate snippet code using dead registers when possible, else
   borrowing registers and saving them below the stack pointer.
   Returns the items plus the dead-allocated scratch registers the code
   leaves modified (borrowed registers are saved/restored and so are not
   clobbers) and whether the spill path was taken — the raw material of
   the manifest's §4.3 claims. *)
let wrap_snippet t ~(dead : Reg.t list) (stmts : Codegen_api.Snippet.stmt list)
    : Asm.item list * Reg.t list * bool =
  let open Codegen_api in
  let needed = Snippet.regs_needed stmts in
  let reads = Snippet.reads stmts in
  let usable =
    if t.use_dead_regs then
      List.filter (fun r -> Reg.is_int r && not (List.mem r reads)) dead
    else []
  in
  if List.length usable >= needed then begin
    t.stats.n_dead_alloc <- t.stats.n_dead_alloc + 1;
    let scratch = List.filteri (fun k _ -> k < needed) usable in
    let ctx =
      Codegen.create_ctx ~label_prefix:(fresh_prefix t) ~profile:t.profile
        ~scratch ()
    in
    (Codegen.generate ctx stmts, scratch, false)
  end
  else begin
    t.stats.n_spilled <- t.stats.n_spilled + 1;
    let borrowed_count = needed - List.length usable in
    let borrowed =
      List.filter
        (fun r -> (not (List.mem r usable)) && not (List.mem r reads))
        spill_candidates
      |> List.filteri (fun k _ -> k < borrowed_count)
    in
    if List.length borrowed < borrowed_count then
      fail "cannot find %d registers to borrow" borrowed_count;
    let frame =
      Int64.to_int
        (Dyn_util.Bits.align_up (Int64.of_int (8 * List.length borrowed)) 16)
    in
    let saves =
      Asm.Insn (Build.addi Reg.sp Reg.sp (-frame))
      :: List.mapi (fun k r -> Asm.Insn (Build.sd r (8 * k) Reg.sp)) borrowed
    in
    let restores =
      List.mapi (fun k r -> Asm.Insn (Build.ld r (8 * k) Reg.sp)) borrowed
      @ [ Asm.Insn (Build.addi Reg.sp Reg.sp frame) ]
    in
    (* the snippet runs below the save frame: its [Reg sp] reads add it back *)
    let ctx =
      Codegen.create_ctx ~label_prefix:(fresh_prefix t) ~sp_bias:frame ~profile:t.profile
        ~scratch:(usable @ borrowed) ()
    in
    (saves @ Codegen.generate ctx stmts @ restores, usable, true)
  end

(* --- springboards ----------------------------------------------------------- *)

let has_c t = Ext.supports t.profile Ext.C

(* Choose and encode the springboard for [b] -> [tramp_addr].
   Returns (bytes, strategy, scratch register an auipc+jalr consumed);
   trap springboards also yield a map entry. *)
let springboard t (b : Cfg.block) (tramp_addr : int64) ~(dead : Reg.t list) :
    Bytes.t * strategy * Reg.t option =
  let size = Int64.to_int (Int64.sub b.Cfg.b_end b.Cfg.b_start) in
  let off = Int64.sub tramp_addr b.Cfg.b_start in
  let fits_jal = Dyn_util.Bits.fits_signed off 21 in
  let fits_cj = Dyn_util.Bits.fits_signed off 12 in
  if size >= 4 && fits_jal then
    (Encode.encode (Build.jal Reg.zero (Int64.to_int off)), Sp_jal, None)
  else if size >= 2 && fits_cj && has_c t then
    ( (match Encode.compress (Build.jal Reg.zero (Int64.to_int off)) with
      | Some hw ->
          let bts = Bytes.create 2 in
          Bytes.set_uint16_le bts 0 hw;
          bts
      | None -> fail "c.j encoding failed unexpectedly"),
      Sp_cj,
      None )
  else if size >= 8 then begin
    (* auipc+jalr consumes a register; it must be dead at block entry *)
    match List.filter (fun r -> Reg.is_int r && r <> Reg.zero && r <> Reg.sp) dead with
    | scratch :: _ ->
        let hi, lo = Asm.pcrel_hi_lo off in
        let buf = Buffer.create 8 in
        Buffer.add_bytes buf (Encode.encode (Build.auipc scratch hi));
        Buffer.add_bytes buf (Encode.encode (Build.jalr Reg.zero scratch lo));
        (Buffer.to_bytes buf, Sp_auipc_jalr, Some scratch)
    | [] ->
        (* no dead register: fall back to the trap *)
        if has_c t then (Bytes.of_string "\x02\x90", Sp_trap, None)
        else (Encode.encode Build.ebreak, Sp_trap, None)
  end
  else if size >= 2 && has_c t then
    (* the paper's worst case: the 2-byte trap instruction (c.ebreak) *)
    (Bytes.of_string "\x02\x90", Sp_trap, None)
  else if size >= 4 then (Encode.encode Build.ebreak, Sp_trap, None)
  else fail "block at 0x%Lx too small to instrument" b.Cfg.b_start

(* --- the rewrite ------------------------------------------------------------- *)

(* Liveness of [b]'s function, analyzed once per plan and memoized in
   [cache] (keyed by function entry). *)
let liveness_of t cache (b : Cfg.block) =
  match Cfg.func_at t.cfg b.Cfg.b_func with
  | None -> None
  | Some f -> (
      match Hashtbl.find_opt cache f.Cfg.f_entry with
      | Some lv -> Some lv
      | None ->
          let lv =
            Trace.with_span "patch.liveness" (fun () -> Liveness.analyze t.cfg f)
          in
          Hashtbl.replace cache f.Cfg.f_entry lv;
          Some lv)

let dead_at_point t cache (b : Cfg.block) (addr : int64) : Reg.t list =
  match liveness_of t cache b with
  | None -> []
  | Some lv -> Liveness.dead_int_regs_before lv b addr

let dead_on_edge t cache (b : Cfg.block) ~(target : int64) : Reg.t list =
  match liveness_of t cache b with
  | None -> []
  | Some lv ->
      let live = Liveness.live_in lv target in
      List.filter
        (fun r ->
          Reg.is_int r
          && (not (Regset.mem live r))
          && not (Regset.mem Liveness.never_allocatable r))
        (List.init 32 Fun.id)

let tramp_label (b : Cfg.block) = Printf.sprintf "tramp_%Lx" b.Cfg.b_start

(* An instrumentation plan: everything needed to realize the insertions,
   independent of whether the target is an ELF file (static rewriting) or
   a live process (dynamic instrumentation). *)
type plan = {
  pl_tramp_base : int64;
  pl_tramp_code : Bytes.t;
  pl_patches : (int64 * Bytes.t) list; (* springboards over original code *)
  pl_zeroed : (int64 * int) list; (* block spans cleared before patching *)
  pl_data_base : int64;
  pl_data_size : int;
  pl_traps : (int64 * int64) list; (* trap springboard -> trampoline *)
}

let plan (t : t) : plan =
  let cache = Hashtbl.create 8 in
  (* 1. build all trampolines, one item list per block *)
  let items = ref [] in
  let blocks =
    Hashtbl.fold (fun baddr reqs acc -> (baddr, reqs) :: acc) t.requests []
    |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
  in
  let block_insertions : (int64, Manifest.insertion list) Hashtbl.t =
    Hashtbl.create 16
  in
  List.iter
    (fun (baddr, reqs) ->
      let b =
        match Cfg.block_at t.cfg baddr with
        | Some b -> b
        | None -> fail "no block at 0x%Lx" baddr
      in
      let minfo = ref [] in
      let insertions =
        List.filter_map
          (function
            | Before (addr, stmts) ->
                let dead = dead_at_point t cache b addr in
                let code, clobbers, spilled = wrap_snippet t ~dead stmts in
                minfo :=
                  { Manifest.mi_addr = addr;
                    mi_edge = false;
                    mi_spilled = spilled;
                    mi_clobbers = clobbers;
                    mi_code_defs = Manifest.defs_of_items code }
                  :: !minfo;
                Some { Trampoline.ins_before = addr; ins_items = code }
            | On_edge _ -> None)
          reqs
      in
      let edge_insertions =
        List.filter_map
          (function
            | On_edge (branch_addr, stmts) ->
                let target =
                  match Cfg.last_insn b with
                  | Some term -> Int64.add branch_addr term.Instruction.insn.Insn.imm
                  | None -> baddr
                in
                let dead = dead_on_edge t cache b ~target in
                let code, clobbers, spilled = wrap_snippet t ~dead stmts in
                minfo :=
                  { Manifest.mi_addr = branch_addr;
                    mi_edge = true;
                    mi_spilled = spilled;
                    mi_clobbers = clobbers;
                    mi_code_defs = Manifest.defs_of_items code }
                  :: !minfo;
                Some { Trampoline.ei_branch = branch_addr; ei_items = code }
            | Before _ -> None)
          reqs
      in
      Hashtbl.replace block_insertions baddr (List.rev !minfo);
      items :=
        (Trampoline.build ~entry_label:(tramp_label b) b ~insertions
           ~edge_insertions
        @ [ Asm.Align 4 ])
        :: !items)
    blocks;
  let asm =
    Asm.assemble ~base:t.tramp_base ~symbols:Trampoline.abs_symbols
      (List.concat (List.rev !items))
  in
  (* 2. springboards *)
  let traps = ref [] in
  let patches = ref [] in
  let zeroed = ref [] in
  let entries = ref [] in
  List.iter
    (fun (baddr, _) ->
      let b = Option.get (Cfg.block_at t.cfg baddr) in
      let tramp_addr = Asm.label_addr asm (tramp_label b) in
      let dead = dead_at_point t cache b baddr in
      let sb, strat, sb_scratch = springboard t b tramp_addr ~dead in
      t.stats.strategies <- (baddr, strat) :: t.stats.strategies;
      if strat = Sp_trap then traps := (baddr, tramp_addr) :: !traps;
      Log.debug (fun m ->
          m "springboard at 0x%Lx -> 0x%Lx via %s" baddr tramp_addr
            (strategy_name strat));
      let bsize = Int64.to_int (Int64.sub b.Cfg.b_end b.Cfg.b_start) in
      zeroed := (baddr, bsize) :: !zeroed;
      patches := (baddr, sb) :: !patches;
      entries :=
        {
          Manifest.me_block = baddr;
          me_block_end = b.Cfg.b_end;
          me_func = b.Cfg.b_func;
          me_tramp = tramp_addr;
          me_strategy = strategy_name strat;
          me_sb_len = Bytes.length sb;
          me_sb_scratch = sb_scratch;
          me_insertions =
            Option.value (Hashtbl.find_opt block_insertions baddr) ~default:[];
        }
        :: !entries)
    blocks;
  t.last_manifest <-
    Some
      {
        Manifest.m_tramp_base = t.tramp_base;
        m_tramp_size = Bytes.length asm.Asm.code;
        m_data_base = t.data_base;
        m_data_size = max 8 t.data_cursor;
        m_traps = !traps;
        m_entries = List.rev !entries;
      };
  {
    pl_tramp_base = t.tramp_base;
    pl_tramp_code = asm.Asm.code;
    pl_patches = List.rev !patches;
    pl_zeroed = List.rev !zeroed;
    pl_data_base = t.data_base;
    pl_data_size = max 8 t.data_cursor;
    pl_traps = !traps;
  }

(* Apply a plan to the original image: static binary rewriting. *)
let apply_to_image (t : t) (pl : plan) : Elfkit.Types.image =
  let patched : (string, Bytes.t) Hashtbl.t = Hashtbl.create 4 in
  let section_bytes name data =
    match Hashtbl.find_opt patched name with
    | Some b -> b
    | None ->
        let b = Bytes.copy data in
        Hashtbl.replace patched name b;
        b
  in
  let write_at addr (f : Bytes.t -> int -> unit) =
    match Symtab.region_at t.symtab addr with
    | None -> fail "patch target 0x%Lx not in any region" addr
    | Some r ->
        let bytes = section_bytes r.Symtab.rg_name r.Symtab.rg_data in
        f bytes (Int64.to_int (Int64.sub addr r.Symtab.rg_addr))
  in
  List.iter
    (fun (addr, len) ->
      (* zero first: 0x0000 decodes as the defined illegal instruction,
         catching any stray entry into a clobbered block *)
      write_at addr (fun bytes off -> Bytes.fill bytes off len '\000'))
    pl.pl_zeroed;
  List.iter
    (fun (addr, sb) ->
      write_at addr (fun bytes off -> Bytes.blit sb 0 bytes off (Bytes.length sb)))
    pl.pl_patches;
  let img = t.symtab.Symtab.image in
  let sections =
    List.map
      (fun (s : Elfkit.Types.section) ->
        match Hashtbl.find_opt patched s.Elfkit.Types.s_name with
        | Some b -> { s with Elfkit.Types.s_data = b }
        | None -> s)
      img.Elfkit.Types.sections
  in
  let tramp_section =
    Elfkit.Types.section ".dyninst_text" pl.pl_tramp_code
      ~s_addr:pl.pl_tramp_base
      ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr)
      ~s_addralign:4
  in
  let data_section =
    Elfkit.Types.section ".dyninst_data"
      (Bytes.make pl.pl_data_size '\000')
      ~s_addr:pl.pl_data_base
      ~s_flags:Elfkit.Types.(shf_alloc lor shf_write)
      ~s_addralign:8
  in
  let trap_section =
    if pl.pl_traps = [] then []
    else begin
      let buf = Buffer.create 64 in
      Buffer.add_int64_le buf (Int64.of_int (List.length pl.pl_traps));
      List.iter
        (fun (o, d) ->
          Buffer.add_int64_le buf o;
          Buffer.add_int64_le buf d)
        pl.pl_traps;
      [ Elfkit.Types.section ".dyninst_traps" (Buffer.to_bytes buf) ~s_addralign:8 ]
    end
  in
  {
    img with
    Elfkit.Types.sections =
      sections @ [ tramp_section; data_section ] @ trap_section;
  }

let rewrite (t : t) : Elfkit.Types.image =
  let pl = Trace.with_span "patch.plan" (fun () -> plan t) in
  let img = Trace.with_span "patch.apply" (fun () -> apply_to_image t pl) in
  Obs.incr ~by:t.stats.n_points m_points;
  Obs.incr ~by:(List.length t.stats.strategies) m_springboards;
  img

let stats t = t.stats
let manifest t = t.last_manifest

(* How many instrumented blocks used each springboard strategy, in
   preference order — the paper's springboard mix (§3.1.2). *)
let strategy_mix (s : stats) : (strategy * int) list =
  List.map
    (fun st ->
      (st, List.length (List.filter (fun (_, x) -> x = st) s.strategies)))
    [ Sp_cj; Sp_jal; Sp_auipc_jalr; Sp_trap ]

let n_traps (s : stats) =
  List.length (List.filter (fun (_, x) -> x = Sp_trap) s.strategies)

let pp_stats fmt (s : stats) =
  Format.fprintf fmt
    "%d points instrumented (%d via dead registers, %d spilled)@\n\
     springboards:" s.n_points s.n_dead_alloc s.n_spilled;
  List.iter
    (fun (st, n) -> Format.fprintf fmt " %s=%d" (strategy_name st) n)
    (strategy_mix s);
  let traps = n_traps s in
  if traps > 0 then
    Format.fprintf fmt "@\n%d block(s) fell back to 2-byte trap springboards"
      traps

(* --- cacheable batch entry point ------------------------------------------- *)

(* A declarative counter-instrumentation request over function names:
   the rvrewrite CLI's flag surface as a value, so a whole rewrite is a
   pure function of (symtab, cfg, spec) — exactly what the rvserved
   artifact cache needs to key rewrite results by content hash + spec. *)
type counter_spec = {
  cs_entries : string list; (* count entries of each function *)
  cs_blocks : string list; (* count every block of each function *)
  cs_exits : string list; (* count returns of each function *)
}

let counter_spec ?(entries = []) ?(blocks = []) ?(exits = []) () =
  { cs_entries = entries; cs_blocks = blocks; cs_exits = exits }

(* Canonical one-line rendering, stable under list reordering — the
   spec's contribution to the artifact-cache key. *)
let spec_key (s : counter_spec) : string =
  let part tag fs =
    tag ^ "=" ^ String.concat "," (List.sort_uniq compare fs)
  in
  String.concat ";"
    [ part "e" s.cs_entries; part "b" s.cs_blocks; part "x" s.cs_exits ]

(* Build-then-freeze: create a session, apply the spec, plan and apply —
   returning only immutable results (image, manifest, stats).  Raises
   [Patch_error] on an unknown function name.  The cfg is only read. *)
let instrument_counters ?tramp_base ?use_dead_regs (symtab : Symtab.t)
    (cfg : Cfg.t) (spec : counter_spec) :
    Elfkit.Types.image * Manifest.t option * stats =
  let t = create ?tramp_base ?use_dead_regs symtab cfg in
  let find name =
    match
      List.find_opt (fun (f : Cfg.func) -> f.Cfg.f_name = name) (Cfg.functions cfg)
    with
    | Some f -> f
    | None -> fail "no function named %s" name
  in
  let n = ref 0 in
  let counter tag name =
    incr n;
    allocate_var t (Printf.sprintf "%s_%s" tag name) 8
  in
  List.iter
    (fun name ->
      let f = find name in
      match Point.func_entry cfg f with
      | Some p -> insert t p [ Codegen_api.Snippet.incr (counter "entry" name) ]
      | None -> fail "function %s has no entry block" name)
    (List.sort_uniq compare spec.cs_entries);
  List.iter
    (fun name ->
      let c = counter "blocks" name in
      List.iter
        (fun p -> insert t p [ Codegen_api.Snippet.incr c ])
        (Point.block_entries cfg (find name)))
    (List.sort_uniq compare spec.cs_blocks);
  List.iter
    (fun name ->
      let c = counter "exits" name in
      List.iter
        (fun p -> insert t p [ Codegen_api.Snippet.incr c ])
        (Point.func_exits cfg (find name)))
    (List.sort_uniq compare spec.cs_exits);
  let img = rewrite t in
  (img, t.last_manifest, t.stats)
