(* Domain-parallel traversal parsing (paper §2.1 ParseAPI, §3.2.3; §2's
   "fast parallel algorithm").

   Per-function CFG construction is a pure task over a shared read-only
   {!image}: phase 1 parses each known entry into a *function-local*
   partial CFG (own blocks, edges, discovered callees, jump tables),
   touching no shared mutable state; phase 2 merges the partials into
   the global CFG deterministically and feeds callee entries discovered
   mid-round back as the next round of tasks, until fixpoint.  Gap
   parsing and the dataflow refinement pass then run over the merged
   whole, themselves feeding any discoveries through the same round
   machinery.  Finally {!Cfg.freeze} computes the read-side snapshots.

   Tasks are scheduled over a work-stealing deque per domain
   ({!Wsdeque}); [~domains:1] runs the identical task/merge code path
   sequentially, so the output is schedule-independent by construction:
   what each task computes depends only on (image, entry snapshot), and
   the merge processes partials in ascending entry order regardless of
   completion order.

   Classification is unchanged from the sequential reference
   ({!Refparser}): jal/jalr decisions follow the paper's procedure (link
   register, backward slice, span tests, jump-table analysis, unresolved
   fallback).  Two index structures replace the reference's linear
   scans: decoding binary-searches a base-sorted code-region array with
   a lazy per-halfword memo (shared across domains — a racy publish of
   an immutable decode result is memory-safe in OCaml 5, and a stale
   read only costs a redundant decode), and jump-table guard lookup
   reads an incremental predecessor index maintained on block
   registration instead of scanning every block. *)

open Riscv
open Cfg

let src = Logs.Src.create "parse_api"

module Log = (val Logs.src_log src : Logs.LOG)
module Obs = Dyn_obs.Registry
module Trace = Dyn_obs.Trace

let m_tasks = Obs.counter "parse.tasks"
let m_steals = Obs.counter "parse.steals"
let m_rounds = Obs.counter "parse.rounds"
let m_functions = Obs.counter "parse.functions"
let m_blocks = Obs.counter "parse.blocks"
let h_merge = Obs.histogram "parse.merge_ns"

(* ------------------------------------------------------------------ *)
(* The shared read-only image: base-sorted code regions plus a lazy
   per-halfword decode memo.  [Dec] slots hold immutable results;
   concurrent writers may race on a slot but publish the same value, so
   readers see either [Unk] (and re-decode) or a completed result. *)

type dslot = Unk | Dec of Instruction.t option

type image = {
  symtab : Symtab.t;
  regions : Symtab.region array; (* exec regions, ascending rg_addr *)
  region_ends : int64 array; (* rg_addr + rg_size, same order *)
  dcache : dslot array array; (* per region, one slot per halfword *)
}

(* Fill a region's decode slots by walking the instruction stream from
   the region base: every on-stream offset gets its (pure) decode
   result; an undecodable halfword records [Dec None] and the walk
   resyncs two bytes later.  Off-stream offsets (targets of branches
   into instruction middles) stay [Unk] and fall back to the lazy path
   in {!decode_at}. *)
let predecode (r : Symtab.region) (cache : dslot array) =
  let size = r.Symtab.rg_size in
  let rec go pos =
    if pos + 2 <= size then begin
      let res = Instruction.decode ~base:r.Symtab.rg_addr r.Symtab.rg_data ~pos in
      cache.(pos / 2) <- Dec res;
      match res with
      | Some i -> go (pos + Instruction.length i)
      | None -> go (pos + 2)
    end
  in
  go 0

let build_image symtab =
  let regions = Array.of_list (Symtab.code_regions symtab) in
  Array.sort
    (fun (a : Symtab.region) b ->
      Int64.unsigned_compare a.Symtab.rg_addr b.Symtab.rg_addr)
    regions;
  let region_ends =
    Array.map
      (fun (r : Symtab.region) ->
        Int64.add r.Symtab.rg_addr (Int64.of_int r.Symtab.rg_size))
      regions
  in
  let dcache =
    Array.map
      (fun (r : Symtab.region) ->
        let cache = Array.make ((r.Symtab.rg_size / 2) + 1) Unk in
        predecode r cache;
        cache)
      regions
  in
  { symtab; regions; region_ends; dcache }

(* Pre-decoded images are cached per symtab (physical equality): decode
   results are pure, so re-parsing the same binary — bench repeats, the
   rvserved job executor, a differential run at several domain counts —
   reuses the decoded stream instead of paying it again.  A small LRU
   bounds memory in long-lived daemons. *)
let img_cache : (Symtab.t * image) list ref = ref []
let img_cache_mu = Mutex.create ()
let img_cache_cap = 8

let rec take n = function
  | x :: rest when n > 0 -> x :: take (n - 1) rest
  | _ -> []

let image_of symtab =
  Mutex.lock img_cache_mu;
  let found =
    List.find_opt (fun (s, _) -> s == symtab) !img_cache |> Option.map snd
  in
  let img =
    match found with
    | Some img ->
        img_cache :=
          (symtab, img) :: List.filter (fun (s, _) -> s != symtab) !img_cache;
        img
    | None ->
        let img = build_image symtab in
        img_cache := take img_cache_cap ((symtab, img) :: !img_cache);
        img
  in
  Mutex.unlock img_cache_mu;
  img

(* Index of the region containing [addr], or -1. *)
let region_index img addr =
  let arr = img.regions in
  let n = Array.length arr in
  let rec go lo hi best =
    if lo >= hi then best
    else
      let mid = (lo + hi) / 2 in
      if Int64.unsigned_compare arr.(mid).Symtab.rg_addr addr <= 0 then
        go (mid + 1) hi mid
      else go lo mid best
  in
  match go 0 n (-1) with
  | -1 -> -1
  | k -> if Int64.unsigned_compare addr img.region_ends.(k) < 0 then k else -1

let decode_at img addr : Instruction.t option =
  match region_index img addr with
  | -1 -> None
  | k -> (
      let r = img.regions.(k) in
      let off = Int64.to_int (Int64.sub addr r.Symtab.rg_addr) in
      if off land 1 <> 0 then
        Instruction.decode ~base:r.Symtab.rg_addr r.Symtab.rg_data ~pos:off
      else
        let cache = img.dcache.(k) in
        let slot = off / 2 in
        match cache.(slot) with
        | Dec res -> res
        | Unk ->
            (* off-stream offset the pre-decode walk never reached *)
            let res =
              Instruction.decode ~base:r.Symtab.rg_addr r.Symtab.rg_data
                ~pos:off
            in
            cache.(slot) <- Dec res;
            res)

(* ------------------------------------------------------------------ *)
(* Engine state.  One [eng] per task (small local tables over the round's
   entry snapshot) and one global builder [eng] whose tables are the
   CFG's own; both run the same traversal/classification code. *)

type eng = {
  img : image;
  blocks : (int64, block) Hashtbl.t;
  mutable bmap : block Dyn_util.Interval_map.t;
  funcs : (int64, func) Hashtbl.t;
  jts : (int64, Jump_table.table) Hashtbl.t;
  preds : (int64, block list) Hashtbl.t;
      (* target address -> registered blocks with an out-edge there; the
         incremental index behind jump-table guard lookup.  Built lazily
         on the first guard query (most merges never consult it), kept
         incremental from then on. *)
  mutable preds_ready : bool;
  mutable base_entries : int64 array; (* sorted snapshot at round start *)
  entry_tbl : (int64, unit) Hashtbl.t;
      (* the same snapshot as a hash set for the per-instruction
         membership test; tasks share the round's table read-only *)
  mutable extra_entries : I64Set.t; (* discovered since the snapshot *)
  mutable new_entries : int64 list; (* discovery log, newest first *)
  mutable merge_dirty : bool;
      (* global eng only: the merge split, cut or collided, so function
         membership must be recomputed by BFS over the merged graph *)
}

let mk_task_eng img base_entries entry_tbl =
  {
    img;
    blocks = Hashtbl.create 16;
    bmap = Dyn_util.Interval_map.empty;
    funcs = Hashtbl.create 4;
    jts = Hashtbl.create 4;
    preds = Hashtbl.create 16;
    preds_ready = false;
    base_entries;
    entry_tbl;
    extra_entries = I64Set.empty;
    new_entries = [];
    merge_dirty = false;
  }

let mk_global_eng img (cfg : Cfg.t) =
  {
    img;
    blocks = cfg.blocks;
    bmap = Dyn_util.Interval_map.empty;
    funcs = cfg.funcs;
    jts = cfg.jump_tables;
    preds = Hashtbl.create 256;
    preds_ready = false;
    base_entries = [||];
    entry_tbl = Hashtbl.create 256;
    extra_entries = I64Set.empty;
    new_entries = [];
    merge_dirty = false;
  }

let arr_next_above (arr : int64 array) a =
  let rec go lo hi best =
    if lo >= hi then best
    else
      let mid = (lo + hi) / 2 in
      if Int64.compare arr.(mid) a > 0 then go lo mid (Some arr.(mid))
      else go (mid + 1) hi best
  in
  go 0 (Array.length arr) None

let is_entry eng a =
  Hashtbl.mem eng.entry_tbl a || I64Set.mem a eng.extra_entries

let add_entry eng addr =
  if not (is_entry eng addr) then begin
    eng.extra_entries <- I64Set.add addr eng.extra_entries;
    eng.new_entries <- addr :: eng.new_entries
  end

(* The address span [entry, next-entry-or-region-end) used for the
   "within the same function" test of §3.2.3. *)
let function_span eng entry =
  let above_base = arr_next_above eng.base_entries entry in
  let above_extra =
    I64Set.find_first_opt
      (fun e -> Int64.compare e entry > 0)
      eng.extra_entries
  in
  let above =
    match (above_base, above_extra) with
    | None, r | r, None -> r
    | Some u, Some v -> Some (if Int64.compare u v <= 0 then u else v)
  in
  match above with
  | Some a -> (entry, a)
  | None -> (
      match Symtab.region_at eng.img.symtab entry with
      | Some r ->
          (entry, Int64.add r.Symtab.rg_addr (Int64.of_int r.Symtab.rg_size))
      | None -> (entry, Int64.add entry 0x100000L))

(* --- block registration and the predecessor index --- *)

let preds_add_edges eng (b : block) =
  List.iter
    (fun e ->
      match e.e_dst with
      | T_addr a ->
          let cur =
            match Hashtbl.find_opt eng.preds a with Some l -> l | None -> []
          in
          if not (List.memq b cur) then Hashtbl.replace eng.preds a (b :: cur)
      | T_unknown -> ())
    b.b_out

let preds_add eng (b : block) =
  if eng.preds_ready then preds_add_edges eng b

let preds_remove eng (b : block) =
  if not eng.preds_ready then ()
  else
    List.iter
    (fun e ->
      match e.e_dst with
      | T_addr a -> (
          match Hashtbl.find_opt eng.preds a with
          | Some l -> (
              match List.filter (fun g -> g != b) l with
              | [] -> Hashtbl.remove eng.preds a
              | l' -> Hashtbl.replace eng.preds a l')
          | None -> ())
      | T_unknown -> ())
    b.b_out

let register_block eng (b : block) =
  Hashtbl.replace eng.blocks b.b_start b;
  eng.bmap <- Dyn_util.Interval_map.add eng.bmap b.b_start b.b_end b;
  preds_add eng b

let unregister_block eng (b : block) =
  Hashtbl.remove eng.blocks b.b_start;
  eng.bmap <- Dyn_util.Interval_map.remove eng.bmap b.b_start;
  preds_remove eng b

(* Replace a registered block's out-edges, keeping the index current. *)
let set_out eng (b : block) edges =
  preds_remove eng b;
  b.b_out <- edges;
  preds_add eng b

let block_containing eng addr =
  match Dyn_util.Interval_map.find_addr eng.bmap addr with
  | Some (_, _, b) -> Some b
  | None -> None

(* Bodies of registered blocks with an out-edge to [bstart]; guard
   candidates for jump-table bounds.  First use pays a full index build
   over the registered blocks — identical content to the incremental
   maintenance, so laziness cannot change any classification. *)
let guard_bodies eng bstart =
  if not eng.preds_ready then begin
    eng.preds_ready <- true;
    Hashtbl.iter (fun _ b -> preds_add_edges eng b) eng.blocks
  end;
  match Hashtbl.find_opt eng.preds bstart with
  | Some l -> List.map (fun (g : block) -> g.b_insns) l
  | None -> []

(* --- classification (identical decisions to Refparser) --- *)

let classify_const_jalr eng ~(func : func) ~(bstart : int64) ~(next : int64)
    (i : Insn.t) (tgt : int64) : edge list =
  let mk ek dst = { ek; e_src = bstart; e_dst = dst } in
  let span = function_span eng func.f_entry in
  let in_span a =
    let lo, hi = span in
    Int64.compare a lo >= 0 && Int64.compare a hi < 0
  in
  if i.Insn.rd = 0 then
    if in_span tgt && not (is_entry eng tgt) then [ mk E_jump (T_addr tgt) ]
    else begin
      add_entry eng tgt;
      func.f_callees <- I64Set.add tgt func.f_callees;
      [ mk E_tail_call (T_addr tgt) ]
    end
  else begin
    add_entry eng tgt;
    func.f_callees <- I64Set.add tgt func.f_callees;
    [ mk E_call (T_addr tgt); mk E_call_ft (T_addr next) ]
  end

let classify_terminator eng ~(func : func) ~(bstart : int64)
    ~(body : Instruction.t list) (term : Instruction.t) : edge list =
  let addr = term.Instruction.addr in
  let i = term.Instruction.insn in
  let next = Instruction.next_addr term in
  let here = T_addr next in
  let symtab = eng.img.symtab in
  let in_code a = Symtab.is_code_addr symtab a in
  let span = function_span eng func.f_entry in
  let in_span a =
    let lo, hi = span in
    Int64.compare a lo >= 0 && Int64.compare a hi < 0
  in
  let mk ek dst = { ek; e_src = bstart; e_dst = dst } in
  match i.Insn.op with
  | op when Op.is_cond_branch op ->
      let tgt = Int64.add addr i.Insn.imm in
      [ mk E_taken (T_addr tgt); mk E_not_taken here ]
  | Op.JAL ->
      let tgt = Int64.add addr i.Insn.imm in
      if i.Insn.rd <> 0 then begin
        add_entry eng tgt;
        func.f_callees <- I64Set.add tgt func.f_callees;
        [ mk E_call (T_addr tgt); mk E_call_ft here ]
      end
      else if
        (is_entry eng tgt && Int64.compare tgt func.f_entry <> 0)
        || not (in_span tgt)
      then begin
        (* a jump that actually represents a call: tail call *)
        add_entry eng tgt;
        func.f_callees <- I64Set.add tgt func.f_callees;
        [ mk E_tail_call (T_addr tgt) ]
      end
      else [ mk E_jump (T_addr tgt) ]
  | Op.JALR -> (
      match Slice_lite.jalr_target body i with
      | Some tgt when in_code tgt ->
          classify_const_jalr eng ~func ~bstart ~next i tgt
      | Some _ -> [ mk E_indirect T_unknown ] (* constant, but not code *)
      | None ->
          let is_return =
            i.Insn.rd = 0
            && (i.Insn.rs1 = Reg.ra
               ||
               match List.rev body with
               | prev :: _ -> (
                   let p = prev.Instruction.insn in
                   match p.Insn.op with
                   | Op.JAL | Op.JALR -> p.Insn.rd = i.Insn.rs1 && p.Insn.rd <> 0
                   | _ -> false)
               | [] -> false)
          in
          if is_return then begin
            func.f_returns <- true;
            [ mk E_return T_unknown ]
          end
          else begin
            let guards = guard_bodies eng bstart in
            match Jump_table.analyze ~symtab ~span ~guards body i with
            | Some jt ->
                Log.debug (fun m ->
                    m "jump table at 0x%Lx: %d targets" addr
                      (List.length jt.Jump_table.jt_targets));
                Hashtbl.replace eng.jts bstart jt;
                List.map
                  (fun t -> mk E_jump_table (T_addr t))
                  jt.Jump_table.jt_targets
            | None ->
                if i.Insn.rd <> 0 then
                  (* unresolved indirect call; calls are assumed to return *)
                  [ mk E_call T_unknown; mk E_call_ft here ]
                else [ mk E_indirect T_unknown ]
          end)
  | Op.ECALL | Op.EBREAK ->
      (* straight-line from the parser's point of view *)
      [ mk E_fallthrough here ]
  | _ -> [ mk E_fallthrough here ]

let is_terminator (ins : Instruction.t) =
  Op.is_control_flow (Instruction.op ins)

(* Split [b] at [addr] (an instruction boundary inside b); the tail
   becomes a new block, [b] keeps the head and falls through.  A jalr
   terminator is re-classified: its resolution may have used head
   instructions. *)
let split_block eng (b : block) (addr : int64) : block =
  let head, tail =
    List.partition
      (fun i -> Int64.compare i.Instruction.addr addr < 0)
      b.b_insns
  in
  assert (tail <> []);
  let b2 =
    {
      b_start = addr;
      b_end = b.b_end;
      b_insns = tail;
      b_out = List.map (fun e -> { e with e_src = addr }) b.b_out;
      b_in = [];
      b_func = b.b_func;
    }
  in
  unregister_block eng b;
  b.b_end <- addr;
  b.b_insns <- head;
  b.b_out <- [ { ek = E_fallthrough; e_src = b.b_start; e_dst = T_addr addr } ];
  (* any recovered table belonged to the terminator, now in the tail;
     re-classification below re-registers it under the tail's start *)
  Hashtbl.remove eng.jts b.b_start;
  register_block eng b;
  register_block eng b2;
  (match Hashtbl.find_opt eng.funcs b.b_func with
  | Some f ->
      f.f_blocks <- I64Set.add addr f.f_blocks;
      (match Cfg.last_insn b2 with
      | Some term when term.Instruction.insn.Insn.op = Op.JALR ->
          let body = List.filter (fun i -> i != term) b2.b_insns in
          set_out eng b2 (classify_terminator eng ~func:f ~bstart:addr ~body term)
      | _ -> ())
  | None -> ());
  b2

(* Parse one basic block starting at [addr]. *)
let parse_block eng (func : func) (addr : int64) : block option =
  let rec collect cur acc =
    if (Hashtbl.mem eng.blocks cur || is_entry eng cur) && acc <> [] then
      `Flows_into (cur, List.rev acc)
    else
      match decode_at eng.img cur with
      | None -> `Undecodable (cur, List.rev acc)
      | Some ins ->
          if is_terminator ins then `Terminated (List.rev acc, ins)
          else collect (Instruction.next_addr ins) (ins :: acc)
  in
  match collect addr [] with
  | `Flows_into (next_start, insns) ->
      let b =
        {
          b_start = addr;
          b_end = next_start;
          b_insns = insns;
          b_out =
            [ { ek = E_fallthrough; e_src = addr; e_dst = T_addr next_start } ];
          b_in = [];
          b_func = func.f_entry;
        }
      in
      register_block eng b;
      Some b
  | `Undecodable (stop, insns) ->
      if insns = [] then None
      else begin
        let b =
          {
            b_start = addr;
            b_end = stop;
            b_insns = insns;
            b_out = [];
            b_in = [];
            b_func = func.f_entry;
          }
        in
        register_block eng b;
        Some b
      end
  | `Terminated (body, term) ->
      let b_end = Instruction.next_addr term in
      let b =
        {
          b_start = addr;
          b_end;
          b_insns = body @ [ term ];
          b_out = [];
          b_in = [];
          b_func = func.f_entry;
        }
      in
      register_block eng b;
      set_out eng b (classify_terminator eng ~func ~bstart:addr ~body term);
      Some b

let rec parse_function eng entry =
  if Hashtbl.mem eng.funcs entry then ()
  else begin
    let name =
      match Symtab.function_at eng.img.symtab entry with
      | Some s when Int64.equal s.Elfkit.Types.sym_value entry ->
          s.Elfkit.Types.sym_name
      | _ -> Printf.sprintf "func_%Lx" entry
    in
    let func =
      {
        f_entry = entry;
        f_name = name;
        f_blocks = I64Set.empty;
        f_callees = I64Set.empty;
        f_returns = false;
        f_from_gap = false;
      }
    in
    Hashtbl.replace eng.funcs entry func;
    let wl = Queue.create () in
    Queue.add entry wl;
    traverse eng func wl
  end

(* Traversal worklist over one function: claims/splits/parses blocks and
   follows intraprocedural successors. *)
and traverse eng (func : func) (wl : int64 Queue.t) =
  let entry = func.f_entry in
  while not (Queue.is_empty wl) do
    let addr = Queue.pop wl in
    if not (I64Set.mem addr func.f_blocks) then begin
      let b =
        match Hashtbl.find_opt eng.blocks addr with
        | Some b -> Some b
        | None -> (
            match block_containing eng addr with
            | Some existing ->
                if
                  List.exists
                    (fun ins -> Int64.equal ins.Instruction.addr addr)
                    existing.b_insns
                then Some (split_block eng existing addr)
                else
                  (* branch to a non-boundary address (overlapping
                     decode) — rare but legal; not materialized *)
                  None
            | None -> parse_block eng func addr)
      in
      match b with
      | None -> ()
      | Some b ->
          func.f_blocks <- I64Set.add b.b_start func.f_blocks;
          List.iter
            (fun succ ->
              (* do not traverse into another known function's entry *)
              if
                (not (I64Set.mem succ func.f_blocks))
                && not (is_entry eng succ && not (Int64.equal succ entry))
              then Queue.add succ wl)
            (intra_succs b)
    end
  done

(* ------------------------------------------------------------------ *)
(* Phase 1: the per-entry task.  Runs over a fresh local [eng] whose
   only shared inputs are the image and the round's entry snapshot, so
   the partial depends on nothing another task mutates. *)

type partial = {
  p_entry : int64;
  p_func : func;
  p_blocks : block list; (* ascending b_start *)
  p_jts : (int64 * Jump_table.table) list;
  p_new : int64 list; (* discovered entries, in discovery order *)
}

let parse_task img base_entries entry_tbl entry : partial =
  let eng = mk_task_eng img base_entries entry_tbl in
  parse_function eng entry;
  let blocks =
    Hashtbl.fold (fun _ b acc -> b :: acc) eng.blocks []
    |> List.sort (fun a b -> Int64.unsigned_compare a.b_start b.b_start)
  in
  {
    p_entry = entry;
    p_func = Hashtbl.find eng.funcs entry;
    p_blocks = blocks;
    p_jts = Hashtbl.fold (fun k v acc -> (k, v) :: acc) eng.jts [];
    p_new = List.rev eng.new_entries;
  }

(* Fan the round's tasks across [domains] workers, one work-stealing
   deque each, results into fixed slots (completion order is
   irrelevant — the merge sorts by entry). *)
let run_tasks ~workers img base_entries entry_tbl (pending : int64 array) :
    partial array =
  let n = Array.length pending in
  let results = Array.make n None in
  let failure = Atomic.make None in
  let run i =
    match parse_task img base_entries entry_tbl pending.(i) with
    | p -> results.(i) <- Some p
    | exception e -> ignore (Atomic.compare_and_set failure None (Some e))
  in
  Obs.incr ~by:n m_tasks;
  let w = max 1 (min workers n) in
  if w = 1 then
    for i = 0 to n - 1 do
      run i
    done
  else begin
    let deques = Array.init w (fun _ -> Wsdeque.create ()) in
    for i = 0 to n - 1 do
      Wsdeque.push deques.(i mod w) i
    done;
    let steals = Atomic.make 0 in
    (* No task ever enqueues more work mid-round (new entries wait for
       the next round), so the deques only drain: once a worker's pop
       and a full steal sweep both come up empty it can exit — spinning
       until every in-flight task finishes would burn a scheduler
       quantum per deschedule on oversubscribed machines. *)
    let worker k =
      let rec loop () =
        if Atomic.get failure = None then
          match Wsdeque.pop deques.(k) with
          | Some i ->
              run i;
              loop ()
          | None -> (
              let rec try_steal j =
                if j >= w then None
                else
                  match Wsdeque.steal deques.((k + j) mod w) with
                  | Some _ as r -> r
                  | None -> try_steal (j + 1)
              in
              match try_steal 1 with
              | Some i ->
                  Atomic.incr steals;
                  run i;
                  loop ()
              | None -> ())
      in
      loop ()
    in
    let doms =
      Array.init (w - 1) (fun k -> Domain.spawn (fun () -> worker (k + 1)))
    in
    worker 0;
    Array.iter Domain.join doms;
    Obs.incr ~by:(Atomic.get steals) m_steals
  end;
  (match Atomic.get failure with Some e -> raise e | None -> ());
  Array.map (function Some p -> p | None -> assert false) results

(* ------------------------------------------------------------------ *)
(* Phase 2: deterministic merge.  Partials are installed in ascending
   entry order; block splits at shared addresses tie-break the same way
   (first registration in that order wins), so the merged CFG is a pure
   function of (image, entry fixpoint). *)

(* Starts in [new_starts] strictly inside (lo, hi), ascending. *)
let arr_starts_in (arr : int64 array) lo hi =
  let n = Array.length arr in
  (* first index with arr.(i) > lo *)
  let rec lower l h =
    if l >= h then l
    else
      let mid = (l + h) / 2 in
      if Int64.unsigned_compare arr.(mid) lo <= 0 then lower (mid + 1) h
      else lower l mid
  in
  let rec collect i acc =
    if i < n && Int64.unsigned_compare arr.(i) hi < 0 then
      collect (i + 1) (arr.(i) :: acc)
    else List.rev acc
  in
  collect (lower 0 n) []

(* Install one partial block: cut it at every instruction boundary that
   is (or this round becomes) a block start, register the pieces that
   are new, and re-classify a cut-off jalr terminator (its resolution
   may have used instructions now in an earlier piece).  The cut set is
   found by two range queries — registered starts from the interval
   map, incoming starts from the round's sorted array — so the common
   un-cut block installs without touching its instruction list. *)
let insert_block g (new_starts : int64 array) (fowner : func)
    (jt : Jump_table.table option) (b : block) =
  let cuts =
    List.merge Int64.unsigned_compare
      (Dyn_util.Interval_map.starts_in g.bmap b.b_start b.b_end
      |> List.filter (fun a -> not (Int64.equal a b.b_start)))
      (arr_starts_in new_starts b.b_start b.b_end)
    |> List.sort_uniq Int64.unsigned_compare
  in
  let is_cut a =
    (not (Int64.equal a b.b_start)) && List.mem a cuts
  in
  let flush_piece ~start ~last (insns : Instruction.t list) ~bend ~edges =
    if Hashtbl.mem g.blocks start then g.merge_dirty <- true
    else if Dyn_util.Interval_map.overlaps g.bmap start bend then
      (* the piece cannot be placed disjointly (overlapping decode with
         an existing block at a non-boundary offset); the sequential
         parser never materializes such blocks either *)
      g.merge_dirty <- true
    else begin
      let piece =
        {
          b_start = start;
          b_end = bend;
          b_insns = insns;
          b_out = edges;
          b_in = [];
          b_func = b.b_func;
        }
      in
      register_block g piece;
      if last then
        if not (Int64.equal start b.b_start) then begin
          match Cfg.last_insn piece with
          | Some term when term.Instruction.insn.Insn.op = Op.JALR ->
              let body = List.filter (fun i -> i != term) piece.b_insns in
              set_out g piece
                (classify_terminator g ~func:fowner ~bstart:start ~body term)
          | _ -> ()
        end
        else
          match jt with
          | Some t -> Hashtbl.replace g.jts start t
          | None -> ()
    end
  in
  if cuts = [] then
    (* nothing to cut: install verbatim, no per-instruction work *)
    flush_piece ~start:b.b_start ~last:true b.b_insns ~bend:b.b_end
      ~edges:b.b_out
  else begin
    g.merge_dirty <- true;
    let rec seg start acc = function
      | [] ->
          let edges = List.map (fun e -> { e with e_src = start }) b.b_out in
          flush_piece ~start ~last:true (List.rev acc) ~bend:b.b_end ~edges
      | (i : Instruction.t) :: rest ->
          if acc <> [] && is_cut i.Instruction.addr then begin
            let cut = i.Instruction.addr in
            flush_piece ~start ~last:false (List.rev acc) ~bend:cut
              ~edges:
                [ { ek = E_fallthrough; e_src = start; e_dst = T_addr cut } ];
            seg cut [ i ] rest
          end
          else seg start (i :: acc) rest
    in
    seg b.b_start [] b.b_insns
  end

let merge_round g (partials : partial array) =
  let new_starts =
    Array.to_list partials
    |> List.concat_map (fun p ->
           List.map (fun (b : block) -> b.b_start) p.p_blocks)
    |> List.sort_uniq Int64.unsigned_compare
    |> Array.of_list
  in
  (* phase A: split already-registered blocks at incoming starts *)
  Array.iter
    (fun s ->
      if not (Hashtbl.mem g.blocks s) then
        match block_containing g s with
        | Some existing
          when List.exists
                 (fun (i : Instruction.t) ->
                   Int64.equal i.Instruction.addr s)
                 existing.b_insns ->
            g.merge_dirty <- true;
            ignore (split_block g existing s)
        | _ -> ())
    new_starts;
  (* phase B: install partials in ascending entry order *)
  Array.iter
    (fun p ->
      Hashtbl.replace g.funcs p.p_entry p.p_func;
      List.iter
        (fun (b : block) ->
          insert_block g new_starts p.p_func (List.assoc_opt b.b_start p.p_jts)
            b)
        p.p_blocks;
      List.iter (add_entry g) p.p_new)
    partials

(* Recompute every function's block set by BFS from its entry over the
   merged graph (the task-local claims are not meaningful globally), in
   entry order, then drop blocks no function reaches — the merge can
   materialize successor blocks the sequential parser's traversal never
   claims (e.g. past a re-classified terminator). *)
let recompute_membership g =
  let live = Hashtbl.create (Hashtbl.length g.blocks) in
  let funcs =
    Hashtbl.fold (fun _ f acc -> f :: acc) g.funcs []
    |> List.sort (fun a b -> Int64.compare a.f_entry b.f_entry)
  in
  List.iter
    (fun (f : func) ->
      let seen = ref I64Set.empty in
      let members = ref I64Set.empty in
      let wl = Queue.create () in
      Queue.add f.f_entry wl;
      while not (Queue.is_empty wl) do
        let a = Queue.pop wl in
        if not (I64Set.mem a !seen) then begin
          seen := I64Set.add a !seen;
          match Hashtbl.find_opt g.blocks a with
          | None -> ()
          | Some b ->
              members := I64Set.add a !members;
              Hashtbl.replace live a ();
              List.iter
                (fun succ ->
                  if
                    (not (I64Set.mem succ !seen))
                    && not
                         (is_entry g succ
                         && not (Int64.equal succ f.f_entry))
                  then Queue.add succ wl)
                (intra_succs b)
        end
      done;
      f.f_blocks <- !members)
    funcs;
  let orphans =
    Hashtbl.fold
      (fun a b acc -> if Hashtbl.mem live a then acc else b :: acc)
      g.blocks []
  in
  List.iter
    (fun (b : block) ->
      unregister_block g b;
      Hashtbl.remove g.jts b.b_start)
    orphans

(* ------------------------------------------------------------------ *)
(* The round loop: drain discovered entries to fixpoint, a parallel
   task fan-out plus deterministic merge per round. *)

let refresh_snapshot g =
  let all =
    I64Set.union
      (I64Set.of_list (Array.to_list g.base_entries))
      g.extra_entries
  in
  g.base_entries <- Array.of_list (I64Set.elements all);
  I64Set.iter (fun e -> Hashtbl.replace g.entry_tbl e ()) g.extra_entries;
  g.extra_entries <- I64Set.empty

let drain_rounds ~workers g =
  let funcs_before = Hashtbl.length g.funcs in
  let rounds_here = ref 0 in
  while g.new_entries <> [] do
    incr rounds_here;
    let pending =
      List.sort_uniq Int64.compare g.new_entries |> Array.of_list
    in
    g.new_entries <- [];
    refresh_snapshot g;
    Obs.incr m_rounds;
    let partials =
      Trace.with_span "parse.round" (fun () ->
          run_tasks ~workers g.img g.base_entries g.entry_tbl pending)
    in
    let t0 = Trace.now_ns () in
    merge_round g partials;
    Obs.observe h_merge (Trace.now_ns () - t0)
  done;
  (* The membership BFS is only needed when the merge actually combined
     work: after a single clean round into an empty graph, every block
     was installed verbatim from exactly one task, every task ran
     against what turned out to be the final entry snapshot (one round
     means no entries were discovered), and the task traversals used
     the same entry-stopping rule the BFS does — so the task-local
     block sets ARE the BFS result and no orphans exist.  Any split,
     cut, collision, extra round or pre-existing function falls back to
     the full recompute.  The test depends only on merge outcomes,
     never on scheduling, so the fast path cannot break CFG identity
     across domain counts. *)
  if !rounds_here = 0 then ()
  else if !rounds_here = 1 && funcs_before = 0 && not g.merge_dirty then ()
  else Trace.with_span "parse.membership" (fun () -> recompute_membership g)

(* --- gap parsing: prologue heuristic over uncovered code bytes --- *)

let looks_like_prologue img addr =
  match decode_at img addr with
  | None -> false
  | Some ins -> (
      let i = ins.Instruction.insn in
      match i.Insn.op with
      | Op.ADDI ->
          i.Insn.rd = Reg.sp && i.Insn.rs1 = Reg.sp
          && Int64.compare i.Insn.imm 0L < 0
      | Op.SD | Op.SW ->
          i.Insn.rs1 = Reg.sp && (i.Insn.rs2 = Reg.ra || i.Insn.rs2 = Reg.s0)
      | _ -> false)

let gap_parse g =
  let candidates = ref [] in
  Array.iter
    (fun (r : Symtab.region) ->
      let lo = r.Symtab.rg_addr in
      let hi = Int64.add lo (Int64.of_int r.Symtab.rg_size) in
      let gaps = Dyn_util.Interval_map.gaps g.bmap lo hi in
      List.iter
        (fun (glo, ghi) ->
          let cur = ref (Dyn_util.Bits.align_up glo 2) in
          let found = ref false in
          while (not !found) && Int64.compare (Int64.add !cur 4L) ghi <= 0 do
            if looks_like_prologue g.img !cur then begin
              found := true;
              Log.debug (fun m -> m "gap function candidate at 0x%Lx" !cur);
              candidates := !cur :: !candidates;
              add_entry g !cur
            end
            else cur := Int64.add !cur 2L
          done)
        gaps)
    g.img.regions;
  !candidates

(* --- dataflow refinement of unresolved indirect transfers --- *)

let refine_indirects g (cfg : Cfg.t) : bool =
  let changed = ref false in
  List.iter
    (fun (f : func) ->
      let unresolved =
        Cfg.blocks_of cfg f
        |> List.filter (fun (b : block) ->
               match (Cfg.last_insn b, b.b_out) with
               | Some term, [ { ek = E_indirect; e_dst = T_unknown; _ } ] ->
                   term.Instruction.insn.Insn.op = Op.JALR
               | _ -> false)
      in
      if unresolved <> [] then begin
        let cp = Constprop.analyze cfg f in
        List.iter
          (fun (b : block) ->
            match Cfg.last_insn b with
            | Some term -> (
                let i = term.Instruction.insn in
                match
                  Constprop.value_before cp b term.Instruction.addr i.Insn.rs1
                with
                | Constprop.C base ->
                    let tgt =
                      Int64.logand (Int64.add base i.Insn.imm) (Int64.lognot 1L)
                    in
                    if Symtab.is_code_addr cfg.symtab tgt then begin
                      Log.debug (fun m ->
                          m "refined jalr at 0x%Lx -> 0x%Lx"
                            term.Instruction.addr tgt);
                      set_out g b
                        (classify_const_jalr g ~func:f ~bstart:b.b_start
                           ~next:(Instruction.next_addr term) i tgt);
                      changed := true;
                      (* continue traversal from the new successors *)
                      let wl = Queue.create () in
                      List.iter
                        (fun succ ->
                          if not (I64Set.mem succ f.f_blocks) then
                            Queue.add succ wl)
                        (intra_succs b);
                      traverse g f wl
                    end
                | Constprop.Top -> ())
            | None -> ())
          unresolved
      end)
    (Cfg.functions cfg);
  !changed

(* ------------------------------------------------------------------ *)

(* Parse [symtab]'s binary.  Entry points: the ELF entry point and all
   function symbols; call targets discovered during traversal are fed
   back round by round; with [gap_parsing] (default), uncovered byte
   ranges are scanned for prologues afterwards.  [domains] is the task
   fan-out width; the result is identical for every value. *)
let parse ?(gap_parsing = true) ?(domains = 1) ?(oversubscribe = false)
    (symtab : Symtab.t) : Cfg.t =
  (* Scheduling policy: never fan out beyond the hardware's core count.
     The CFG is schedule-independent, so extra workers can only add
     stop-the-world GC synchronizations — on an oversubscribed machine
     each one waits for a descheduled peer domain.  [~oversubscribe]
     bypasses the clamp; the parsediff harness uses it to stress the
     contended scheduling regime the clamp exists to avoid. *)
  let workers =
    let d = max 1 domains in
    if oversubscribe then d else min d (Domain.recommended_domain_count ())
  in
  let img = image_of symtab in
  let cfg = Cfg.create symtab in
  let g = mk_global_eng img cfg in
  let entry = Symtab.entry symtab in
  if not (Int64.equal entry 0L) then add_entry g entry;
  List.iter
    (fun (s : Elfkit.Types.symbol) ->
      if Symtab.is_code_addr symtab s.Elfkit.Types.sym_value then
        add_entry g s.Elfkit.Types.sym_value)
    (Symtab.functions symtab);
  Trace.with_span "parse.traverse" (fun () -> drain_rounds ~workers g);
  if gap_parsing then
    Trace.with_span "parse.gaps" (fun () ->
        (* iterate: parsing a gap function may expose further gaps *)
        let rec go rounds =
          if rounds > 16 then ()
          else
            let found = gap_parse g in
            if found <> [] then begin
              drain_rounds ~workers g;
              List.iter
                (fun e ->
                  match func_at cfg e with
                  | Some f -> f.f_from_gap <- true
                  | None -> ())
                found;
              go (rounds + 1)
            end
        in
        go 0);
  Trace.with_span "parse.refine" (fun () ->
      let rec refine_rounds n =
        if n < 4 && refine_indirects g cfg then begin
          drain_rounds ~workers g;
          refine_rounds (n + 1)
        end
      in
      refine_rounds 0);
  Cfg.freeze cfg ~entries:g.base_entries;
  Obs.incr ~by:(Hashtbl.length cfg.funcs) m_functions;
  Obs.incr ~by:(Hashtbl.length cfg.blocks) m_blocks;
  cfg
