(* The patch verifier: re-parse a rewritten binary against the manifest
   [Patch_api.Rewriter.plan] emitted and check the rewrite's structural
   claims instead of trusting them —

     - every springboard decodes, targets its trampoline, and lands on a
       decoded instruction boundary there;
     - an auipc+jalr springboard's scratch register really is dead at
       the block entry (paper §4.3);
     - every register a snippet leaves clobbered is statically dead at
       its patch point (the §4.3 optimization, validated);
     - jump-table entries in the rewritten image still land on
       instruction boundaries, never inside a patched-out block.

   Whether each relocated block still computes what the original did
   (registers, stack pointer, memory) is the symbolic tier's job
   ([Verify_api.Check.verify_rewrite] runs both).  All checks run on
   static artifacts only — no execution — making this the cheap
   complement to the dynamic rvcheck round trip. *)

open Riscv
open Parse_api
open Dataflow_api
module M = Patch_api.Manifest

let err ~rule ?func ~addr fmt = Diag.make ~rule ~severity:Diag.Error ?func ~addr fmt
let warn ~rule ?func ~addr fmt = Diag.make ~rule ~severity:Diag.Warning ?func ~addr fmt

(* Instruction boundaries of the trampoline region, found by decoding it
   linearly: one byte per halfword offset from the manifest base, set
   where an instruction starts.  Alignment padding (zero bytes) does not
   decode and is skipped a halfword at a time.  The rules only ask
   whether an address is a boundary, so only decoded lengths are kept. *)
type boundaries = { bd_base : int64; bd_marks : Bytes.t }

let is_boundary bd addr =
  let off = Int64.sub addr bd.bd_base in
  Int64.compare off 0L >= 0
  && Int64.rem off 2L = 0L
  && Int64.compare off (Int64.of_int (2 * Bytes.length bd.bd_marks)) < 0
  && Bytes.get bd.bd_marks (Int64.to_int off / 2) <> '\000'

let no_boundaries = { bd_base = 0L; bd_marks = Bytes.empty }

let decode_tramp (rw : Symtab.t) (m : M.t) : boundaries option =
  match Symtab.region_at rw m.M.m_tramp_base with
  | None -> None
  | Some r ->
      let data = r.Symtab.rg_data in
      let first = Int64.to_int (Int64.sub m.M.m_tramp_base r.Symtab.rg_addr) in
      (* nothing decodes past the region's bytes *)
      let last =
        first + max 0 (min m.M.m_tramp_size (Bytes.length data - first))
      in
      let marks = Bytes.make ((last - first + 1) / 2) '\000' in
      let rec go pos =
        if pos < last then
          match Decode.decode ~pos data with
          | Some insn ->
              Bytes.set marks ((pos - first) / 2) '\001';
              go (pos + insn.Insn.len)
          | None -> go (pos + 2)
      in
      go first;
      Some { bd_base = m.M.m_tramp_base; bd_marks = marks }

let verify ~(orig : Symtab.t) (cfg : Cfg.t) ~(manifest : M.t)
    ~(rewritten : Elfkit.Types.image) : Diag.t list =
  let m = manifest in
  let ds = ref [] in
  let add d = ds := d :: !ds in
  let rw = Symtab.of_image rewritten in
  let func_name faddr =
    Option.map (fun f -> f.Cfg.f_name) (Cfg.func_at cfg faddr)
  in
  let lv_cache = Hashtbl.create 8 in
  let liveness (f : Cfg.func) =
    match Hashtbl.find_opt lv_cache f.Cfg.f_entry with
    | Some lv -> lv
    | None ->
        let lv = Liveness.analyze cfg f in
        Hashtbl.replace lv_cache f.Cfg.f_entry lv;
        lv
  in
  (* --- trampoline region ------------------------------------------------- *)
  let tramp_insns =
    match decode_tramp rw m with
    | Some t -> t
    | None ->
        add (err ~rule:"manifest-mismatch" ~addr:m.M.m_tramp_base
               "no trampoline region at manifest base 0x%Lx" m.M.m_tramp_base);
        no_boundaries
  in
  (match Symtab.region_at rw m.M.m_data_base with
  | Some r when r.Symtab.rg_size >= m.M.m_data_size -> ()
  | _ ->
      add (err ~rule:"manifest-mismatch" ~addr:m.M.m_data_base
             "patch data area (%d bytes at 0x%Lx) missing from the rewritten \
              image"
             m.M.m_data_size m.M.m_data_base));
  let trap_map = Hashtbl.create 16 in
  List.iter (fun od -> Hashtbl.replace trap_map od ()) m.M.m_traps;
  (* --- per-entry checks -------------------------------------------------- *)
  List.iter
    (fun (e : M.entry) ->
      let func = func_name e.M.me_func in
      let at = e.M.me_block in
      let fail_rule rule fmt = Format.kasprintf (fun s ->
          add (Diag.make ~rule ~severity:Diag.Error ?func ~addr:at "%s" s)) fmt
      in
      match Cfg.block_at cfg e.M.me_block with
      | None -> fail_rule "manifest-mismatch" "no parsed block at 0x%Lx" at
      | Some b -> (
          (* 1. springboard bytes in the rewritten image *)
          let decode_rw addr =
            match Symtab.region_at rw addr with
            | None -> None
            | Some r ->
                Instruction.decode ~base:r.Symtab.rg_addr r.Symtab.rg_data
                  ~pos:(Int64.to_int (Int64.sub addr r.Symtab.rg_addr))
          in
          let check_target tgt =
            if not (Int64.equal tgt e.M.me_tramp) then
              fail_rule "springboard-target"
                "springboard targets 0x%Lx; manifest trampoline is 0x%Lx" tgt
                e.M.me_tramp
            else if not (is_boundary tramp_insns tgt) then
              fail_rule "springboard-target"
                "springboard target 0x%Lx is not on a trampoline instruction \
                 boundary"
                tgt
          in
          (match (e.M.me_strategy, decode_rw at) with
          | _, None ->
              fail_rule "springboard-target"
                "springboard bytes at 0x%Lx do not decode" at
          | ("jal" | "c.j"), Some ins
            when Instruction.op ins = Op.JAL
                 && ins.Instruction.insn.Insn.rd = 0 ->
              check_target (Int64.add at ins.Instruction.insn.Insn.imm)
          | "auipc+jalr", Some ins when Instruction.op ins = Op.AUIPC -> (
              match decode_rw (Instruction.next_addr ins) with
              | Some ins2
                when Instruction.op ins2 = Op.JALR
                     && ins2.Instruction.insn.Insn.rd = 0
                     && ins2.Instruction.insn.Insn.rs1
                        = ins.Instruction.insn.Insn.rd ->
                  check_target
                    (Int64.add at
                       (Int64.add ins.Instruction.insn.Insn.imm
                          ins2.Instruction.insn.Insn.imm));
                  if Some ins.Instruction.insn.Insn.rd <> e.M.me_sb_scratch
                  then
                    fail_rule "springboard-scratch"
                      "auipc+jalr uses %s; manifest declared %s"
                      (Reg.name ins.Instruction.insn.Insn.rd)
                      (match e.M.me_sb_scratch with
                      | Some r -> Reg.name r
                      | None -> "none")
              | _ ->
                  fail_rule "springboard-target"
                    "auipc at 0x%Lx is not followed by a matching jalr" at)
          | "trap", Some ins when Instruction.op ins = Op.EBREAK ->
              if not (Hashtbl.mem trap_map (at, e.M.me_tramp)) then
                fail_rule "trap-unmapped"
                  "trap springboard at 0x%Lx has no trap-map entry to 0x%Lx"
                  at e.M.me_tramp
          | strat, Some ins ->
              fail_rule "springboard-target"
                "bytes at 0x%Lx decode as %s, not a %s springboard" at
                (Op.mnemonic (Instruction.op ins))
                strat);
          (* auipc+jalr scratch must be dead at the block entry *)
          (match (e.M.me_sb_scratch, Cfg.func_at cfg e.M.me_func) with
          | Some r, Some f ->
              let dead = Liveness.dead_int_regs_before (liveness f) b at in
              if not (List.mem r dead) then
                fail_rule "springboard-scratch"
                  "springboard scratch %s is live at block entry 0x%Lx"
                  (Reg.name r) at
          | _ -> ());
          (* leftover bytes after the springboard must stay zero *)
          (match
             Symtab.read_data rw
               (Int64.add at (Int64.of_int e.M.me_sb_len))
               (Int64.to_int (Int64.sub e.M.me_block_end at) - e.M.me_sb_len)
           with
          | Some bytes when Bytes.exists (fun c -> c <> '\000') bytes ->
              add (warn ~rule:"block-residue" ?func ~addr:at
                     "non-zero bytes left in patched block 0x%Lx after its \
                      %d-byte springboard"
                     at e.M.me_sb_len)
          | _ -> ());
          (* 2. the relocated block is in the trampoline *)
          if not (is_boundary tramp_insns e.M.me_tramp) then
            fail_rule "manifest-mismatch"
              "no trampoline instructions at 0x%Lx for block 0x%Lx"
              e.M.me_tramp at;
          (* 3. snippet clobbers statically dead at each patch point *)
          match Cfg.func_at cfg e.M.me_func with
          | None -> ()
          | Some f ->
              let lv = liveness f in
              List.iter
                (fun (i : M.insertion) ->
                  if i.M.mi_edge then begin
                    let target =
                      match Cfg.last_insn b with
                      | Some term ->
                          Int64.add i.M.mi_addr
                            term.Instruction.insn.Insn.imm
                      | None -> i.M.mi_addr
                    in
                    let live = Liveness.live_in lv target in
                    List.iter
                      (fun r ->
                        if
                          Regset.mem live r
                          || Regset.mem Liveness.never_allocatable r
                        then
                          add (err ~rule:"clobber-live" ?func ~addr:i.M.mi_addr
                                 "edge snippet clobbers %s, live at edge \
                                  target 0x%Lx"
                                 (Reg.name r) target))
                      i.M.mi_clobbers
                  end
                  else begin
                    let dead =
                      Liveness.dead_int_regs_before lv b i.M.mi_addr
                    in
                    List.iter
                      (fun r ->
                        if not (List.mem r dead) then
                          add (err ~rule:"clobber-live" ?func ~addr:i.M.mi_addr
                                 "snippet clobbers %s, live before 0x%Lx"
                                 (Reg.name r) i.M.mi_addr))
                      i.M.mi_clobbers
                  end)
                e.M.me_insertions))
    m.M.m_entries;
  (* --- jump tables in the rewritten image -------------------------------- *)
  let by_start = Hashtbl.create 64 in
  List.iter
    (fun (e : M.entry) -> Hashtbl.replace by_start e.M.me_block ())
    m.M.m_entries;
  (* a patched block strictly containing [a]: binary search for the last
     entry starting below [a], then walk down while the running maximum
     of block ends still reaches past [a] (one step when the blocks are
     disjoint, as the rewriter emits them) *)
  let sorted = Array.of_list m.M.m_entries in
  Array.stable_sort
    (fun (x : M.entry) (y : M.entry) -> Int64.compare x.M.me_block y.M.me_block)
    sorted;
  let max_end = Array.map (fun (e : M.entry) -> e.M.me_block_end) sorted in
  for k = 1 to Array.length max_end - 1 do
    if Int64.compare max_end.(k - 1) max_end.(k) > 0 then
      max_end.(k) <- max_end.(k - 1)
  done;
  let inside_patched a =
    let rec search lo hi =
      if lo >= hi then lo - 1
      else
        let mid = (lo + hi) / 2 in
        if Int64.compare sorted.(mid).M.me_block a < 0 then search (mid + 1) hi
        else search lo mid
    in
    let rec walk k =
      if k < 0 || Int64.compare max_end.(k) a <= 0 then None
      else if Int64.compare a sorted.(k).M.me_block_end < 0 then Some sorted.(k)
      else walk (k - 1)
    in
    walk (search 0 (Array.length sorted))
  in
  let is_insn_boundary a =
    match Cfg.block_containing cfg a with
    | Some b ->
        List.exists
          (fun (ins : Instruction.t) -> Int64.equal ins.Instruction.addr a)
          b.Cfg.b_insns
    | None -> false
  in
  Hashtbl.iter
    (fun bstart (jt : Jump_table.table) ->
      let func =
        match Cfg.block_at cfg bstart with
        | Some b -> func_name b.Cfg.b_func
        | None -> None
      in
      let n = List.length jt.Jump_table.jt_targets in
      if jt.Jump_table.jt_relative then begin
        (* relative entries: the add-base isn't recorded, so compare raw
           table bytes against the original image and check the resolved
           targets against the patch layout *)
        let size = n * jt.Jump_table.jt_entry_size in
        (match
           ( Symtab.read_data orig jt.Jump_table.jt_base size,
             Symtab.read_data rw jt.Jump_table.jt_base size )
         with
        | Some a, Some b when not (Bytes.equal a b) ->
            add (err ~rule:"dangling-jump-table" ?func ~addr:bstart
                   "relative jump table at 0x%Lx was modified by the rewrite"
                   jt.Jump_table.jt_base)
        | _ -> ());
        List.iter
          (fun tgt ->
            match inside_patched tgt with
            | Some e ->
                add (err ~rule:"dangling-jump-table" ?func ~addr:bstart
                       "jump-table target 0x%Lx lands inside patched block \
                        0x%Lx"
                       tgt e.M.me_block)
            | None -> ())
          jt.Jump_table.jt_targets
      end
      else
        (* absolute entries: re-read each slot from the rewritten image *)
        for k = 0 to n - 1 do
          let slot =
            Int64.add jt.Jump_table.jt_base
              (Int64.of_int (k * jt.Jump_table.jt_entry_size))
          in
          match Symtab.read_u64 rw slot with
          | None ->
              add (err ~rule:"dangling-jump-table" ?func ~addr:bstart
                     "jump-table slot 0x%Lx unreadable in the rewritten image"
                     slot)
          | Some tgt -> (
              match (Hashtbl.mem by_start tgt, inside_patched tgt) with
              | true, _ -> () (* lands on a springboard: fine *)
              | false, Some e ->
                  add (err ~rule:"dangling-jump-table" ?func ~addr:bstart
                         "jump-table entry %d -> 0x%Lx lands inside patched \
                          block 0x%Lx"
                         k tgt e.M.me_block)
              | false, None ->
                  if not (is_insn_boundary tgt) then
                    add (err ~rule:"dangling-jump-table" ?func ~addr:bstart
                           "jump-table entry %d -> 0x%Lx is not an \
                            instruction boundary"
                           k tgt))
        done)
    cfg.Cfg.jump_tables;
  Diag.sort !ds
