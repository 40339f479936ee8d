(* The Dyninst facade: a machine-independent interface over the toolkits
   (paper §2: "The abstract interface allows Dyninst-based tools to
   operate without any specific knowledge of the structure of the ISA").

   Mirrors the classic BPatch-style workflow:

     let b = Core.open_file "mutatee" in
     let m = Core.create_mutator b in
     let counter = Core.create_counter m "calls" in
     Core.insert m (Core.at_entry b "multiply") [ Snippet.incr counter ];
     Core.rewrite_to_file m "mutatee.inst"        (* static *)

   or dynamically:

     let p = Core.launch b.image in
     Core.instrument_process m p;
     Core.continue_ p *)

open Parse_api

type binary = { symtab : Symtab.t; cfg : Cfg.t }

exception Not_found_error of string

module Trace = Dyn_obs.Trace

let open_image ?gap_parsing ?domains (img : Elfkit.Types.image) : binary =
  let symtab = Trace.with_span "symtab.build" (fun () -> Symtab.of_image img) in
  let cfg =
    Trace.with_span "parse.cfg" (fun () -> Parser.parse ?gap_parsing ?domains symtab)
  in
  { symtab; cfg }

let open_bytes ?gap_parsing ?domains b =
  open_image ?gap_parsing ?domains
    (Trace.with_span "elf.read" (fun () -> Elfkit.Read.read b))

let open_file ?gap_parsing ?domains path =
  open_image ?gap_parsing ?domains
    (Trace.with_span "elf.read" (fun () -> Elfkit.Read.of_file path))

let image (b : binary) = b.symtab.Symtab.image
let profile (b : binary) = Symtab.profile b.symtab
let functions (b : binary) = Cfg.functions b.cfg

let find_function (b : binary) name : Cfg.func =
  match List.find_opt (fun f -> f.Cfg.f_name = name) (functions b) with
  | Some f -> f
  | None -> raise (Not_found_error ("function " ^ name))

(* --- points ------------------------------------------------------------------- *)

let at_entry (b : binary) name : Patch_api.Point.t =
  match Patch_api.Point.func_entry b.cfg (find_function b name) with
  | Some p -> p
  | None -> raise (Not_found_error ("entry of " ^ name))

let at_exits (b : binary) name = Patch_api.Point.func_exits b.cfg (find_function b name)
let at_call_sites (b : binary) name = Patch_api.Point.call_sites b.cfg (find_function b name)
let at_blocks (b : binary) name = Patch_api.Point.block_entries b.cfg (find_function b name)
let at_loop_entries (b : binary) name = Patch_api.Point.loop_entries b.cfg (find_function b name)
let at_loop_backedges (b : binary) name = Patch_api.Point.loop_backedges b.cfg (find_function b name)

let loops (b : binary) name = Loops.loops_of_function b.cfg (find_function b name)

(* --- static instrumentation ------------------------------------------------------ *)

type mutator = { binary : binary; rw : Patch_api.Rewriter.t }

let create_mutator ?tramp_base ?use_dead_regs (binary : binary) : mutator =
  { binary; rw = Patch_api.Rewriter.create ?tramp_base ?use_dead_regs binary.symtab binary.cfg }

let create_counter (m : mutator) name = Patch_api.Rewriter.allocate_var m.rw name 8
let create_var (m : mutator) name size = Patch_api.Rewriter.allocate_var m.rw name size
let insert (m : mutator) p stmts = Patch_api.Rewriter.insert m.rw p stmts
let rewrite (m : mutator) : Elfkit.Types.image = Patch_api.Rewriter.rewrite m.rw
let rewrite_to_file (m : mutator) path =
  let img = rewrite m in
  Trace.with_span "elf.write" (fun () -> Elfkit.Write.to_file path img)

let stats (m : mutator) = Patch_api.Rewriter.stats m.rw
let manifest (m : mutator) = Patch_api.Rewriter.manifest m.rw

(* --- dynamic instrumentation ------------------------------------------------------- *)

let launch ?argv (img : Elfkit.Types.image) = Proccontrol_api.Proccontrol.launch ?argv img
let attach = Proccontrol_api.Proccontrol.attach

(* A live instrumentation session: the plan that was applied plus the
   original bytes of every patched block, so the instrumentation can be
   removed again (the BPatch removeSnippet story). *)
type dynamic_handle = {
  dh_plan : Patch_api.Rewriter.plan;
  dh_saved : (int64 * Bytes.t) list; (* original bytes per patched block *)
}

(* Apply the mutator's insertions to a live process: write trampolines
   and springboards into its memory through ProcControlAPI (paper
   Figure 1, right-hand paths).  The process should be stopped outside
   the instrumented blocks (e.g. freshly launched, or at a breakpoint at
   an uninstrumented point).  The returned handle can later be passed to
   [uninstrument_process]. *)
let instrument_process_handle (m : mutator) (p : Proccontrol_api.Proccontrol.t)
    : dynamic_handle =
  let open Proccontrol_api in
  let pl = Patch_api.Rewriter.plan m.rw in
  let saved =
    List.map
      (fun (addr, len) -> (addr, Proccontrol.read_memory p addr len))
      pl.Patch_api.Rewriter.pl_zeroed
  in
  (* map the patch code area and install the trampolines *)
  Proccontrol.map_code_region p ~base:pl.Patch_api.Rewriter.pl_tramp_base
    ~size:(Bytes.length pl.Patch_api.Rewriter.pl_tramp_code);
  Proccontrol.write_memory p pl.Patch_api.Rewriter.pl_tramp_base
    pl.Patch_api.Rewriter.pl_tramp_code;
  (* instrumentation data area starts zeroed *)
  Proccontrol.write_memory p pl.Patch_api.Rewriter.pl_data_base
    (Bytes.make pl.Patch_api.Rewriter.pl_data_size '\000');
  (* clear instrumented blocks, then write springboards *)
  List.iter
    (fun (addr, len) ->
      Proccontrol.write_memory p addr (Bytes.make len '\000'))
    pl.Patch_api.Rewriter.pl_zeroed;
  List.iter
    (fun (addr, sb) -> Proccontrol.write_memory p addr sb)
    pl.Patch_api.Rewriter.pl_patches;
  (* trap springboards become pc redirects, the dynamic analogue of the
     rewritten binary's .dyninst_traps section *)
  List.iter
    (fun (from, dest) -> Proccontrol.add_redirect p ~from ~dest)
    pl.Patch_api.Rewriter.pl_traps;
  { dh_plan = pl; dh_saved = saved }

let instrument_process m p = ignore (instrument_process_handle m p)

(* Remove live instrumentation: restore every patched block's original
   bytes and drop the trap redirects.  The trampolines stay mapped but
   become unreachable; instrumentation variables remain readable. *)
let uninstrument_process (h : dynamic_handle)
    (p : Proccontrol_api.Proccontrol.t) : unit =
  let open Proccontrol_api in
  List.iter
    (fun (addr, bytes) -> Proccontrol.write_memory p addr bytes)
    h.dh_saved;
  List.iter
    (fun (from, _) -> Proccontrol.remove_redirect p ~from)
    h.dh_plan.Patch_api.Rewriter.pl_traps

let continue_ = Proccontrol_api.Proccontrol.continue_
let read_counter (p : Proccontrol_api.Proccontrol.t) (v : Codegen_api.Snippet.var) =
  Bytes.get_int64_le
    (Proccontrol_api.Proccontrol.read_memory p v.Codegen_api.Snippet.v_addr 8)
    0

(* --- stack walking ------------------------------------------------------------------ *)

let walker (b : binary) = Stackwalker_api.Stackwalker.create b.symtab b.cfg

let walk_process (b : binary) (p : Proccontrol_api.Proccontrol.t) =
  Stackwalker_api.Stackwalker.walk_machine (walker b)
    (Proccontrol_api.Proccontrol.machine p)

(* --- the component map (paper Figure 2) ---------------------------------------------- *)

(* Component -> components it consumes information from.  This mirrors
   both the paper's Figure 2 and this repository's actual library
   dependency graph (asserted in the test suite). *)
let components : (string * string list) list =
  [
    ("SymtabAPI", []);
    ("InstructionAPI", []);
    ("ParseAPI", [ "SymtabAPI"; "InstructionAPI" ]);
    ("DataflowAPI", [ "ParseAPI"; "InstructionAPI" ]);
    ("CodeGenAPI", [ "SymtabAPI" ]);
    ("PatchAPI", [ "ParseAPI"; "DataflowAPI"; "CodeGenAPI"; "SymtabAPI" ]);
    ("ProcControlAPI", []);
    ("StackwalkerAPI", [ "SymtabAPI"; "ParseAPI"; "DataflowAPI" ]);
    ("Dyninst", [ "PatchAPI"; "ProcControlAPI"; "StackwalkerAPI" ]);
  ]
