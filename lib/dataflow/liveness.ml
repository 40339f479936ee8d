(* Register liveness (DataflowAPI, paper §2.1): the backward dataflow
   problem whose complement — *dead* registers — lets CodeGenAPI build
   instrumentation that avoids spilling (paper §4.3's register-allocation
   optimization).

   ABI boundary summaries (RISC-V psABI):
     - at a return: argument/return registers a0/a1/fa0/fa1, sp, and all
       callee-saved registers are live (the caller owns them);
     - at a call: the call *uses* the argument registers and *kills* the
       caller-saved set minus the arguments (the callee may clobber them,
       so their prior values cannot be live across the call);
     - at unresolved control transfers everything is conservatively
       live. *)

open Riscv
open Parse_api

let callee_saved =
  Regset.of_list
    (Reg.callee_saved_int @ List.map (fun k -> Reg.f k) [ 8; 9; 18; 19; 20; 21; 22; 23; 24; 25; 26; 27 ])

let caller_saved =
  Regset.of_list
    (Reg.caller_saved_int
    @ List.map (fun k -> Reg.f k)
        [ 0; 1; 2; 3; 4; 5; 6; 7; 10; 11; 12; 13; 14; 15; 16; 17; 28; 29; 30; 31 ])

let arg_regs = Regset.of_list (Reg.arg_regs @ Reg.fp_arg_regs)

let live_at_return =
  Regset.union callee_saved
    (Regset.of_list [ Reg.a0; Reg.a1; Reg.f 10; Reg.f 11; Reg.sp; Reg.ra ])

(* def/use of one instruction, with ABI summaries applied to calls. *)
let insn_defs_uses (ins : Instruction.t) ~(is_call : bool) =
  let defs = Regset.of_list (Instruction.regs_written ins) in
  let uses = Regset.of_list (Instruction.regs_read ins) in
  if is_call then
    (* the call instruction writes its link register; additionally the
       callee may clobber every caller-saved register *)
    (Regset.union defs (Regset.diff caller_saved arg_regs),
     Regset.union uses arg_regs)
  else (defs, uses)

let block_is_call_site (b : Cfg.block) =
  List.exists
    (fun e -> e.Cfg.ek = Cfg.E_call || e.Cfg.ek = Cfg.E_tail_call)
    b.Cfg.b_out

(* transfer through one instruction: live_before = (live_after - defs) + uses *)
let step_insn ins ~is_call live_after =
  let defs, uses = insn_defs_uses ins ~is_call in
  Regset.union (Regset.diff live_after defs) uses

type t = {
  func : Cfg.func;
  cfg : Cfg.t;
  live_in : (int64, Regset.t) Hashtbl.t;
  live_out : (int64, Regset.t) Hashtbl.t;
}

(* The transfer of a whole block, [live_in = (live_out - def) ∪ use],
   summarized once: [def] is every register some instruction writes,
   [use] every register read before the block writes it.  Exact for
   this gen/kill form — composing two such transfers yields another.
   The call summary applies to the terminator only. *)
let block_summary (b : Cfg.block) =
  let is_call = block_is_call_site b in
  let rec go = function
    | [] -> (Regset.empty, Regset.empty)
    | ins :: rest ->
        let def_rest, use_rest = go rest in
        let defs, uses = insn_defs_uses ins ~is_call:(is_call && rest = []) in
        (Regset.union defs def_rest, Regset.union uses (Regset.diff use_rest defs))
  in
  go b.Cfg.b_insns

(* The part of [b]'s live-out that no successor's live-in contributes:
   returns, tail calls and unresolved transfers (ABI summaries), and the
   conservative full set for a block with no out-edges (it fell into
   undecodable bytes). *)
let fixed_live_out (b : Cfg.block) =
  if b.Cfg.b_out = [] then Regset.full
  else
    List.fold_left
      (fun acc e ->
        match (e.Cfg.ek, e.Cfg.e_dst) with
        | Cfg.E_return, _ -> Regset.union acc live_at_return
        | Cfg.E_tail_call, _ ->
            (* like a call followed immediately by our return *)
            Regset.union acc (Regset.union arg_regs callee_saved)
        | (Cfg.E_indirect | Cfg.E_jump | Cfg.E_jump_table), Cfg.T_unknown ->
            Regset.full (* unresolved: everything may be used *)
        | _ -> acc (* successors' live-in, or nothing (calls, unknown fallthroughs) *))
      Regset.empty b.Cfg.b_out

(* Block indices in postorder of the intra-procedural successor graph
   from the entry block (when the function has one), then the blocks the
   walk does not reach, in descending address order.  A backward problem
   swept in this order sees most successors settled before their
   predecessors, so the number of sweeps is bounded by loop nesting, not
   by the length of a chain of blocks. *)
let sweep_order n (succs : int list array) entry =
  let visited = Array.make n false in
  let order = ref [] in
  (* iterative DFS: (block, successors still to visit) *)
  let rec walk = function
    | [] -> ()
    | (k, []) :: stack ->
        order := k :: !order;
        walk stack
    | (k, s :: rest) :: stack ->
        if visited.(s) then walk ((k, rest) :: stack)
        else begin
          visited.(s) <- true;
          walk ((s, succs.(s)) :: (k, rest) :: stack)
        end
  in
  Option.iter
    (fun k ->
      visited.(k) <- true;
      walk [ (k, succs.(k)) ])
    entry;
  let postorder = List.rev !order in
  let unreached = ref [] in
  for k = 0 to n - 1 do
    if not visited.(k) then unreached := k :: !unreached
  done;
  Array.of_list (postorder @ !unreached)

let analyze (cfg : Cfg.t) (func : Cfg.func) : t =
  let blocks = Array.of_list (Cfg.blocks_of cfg func) in
  let n = Array.length blocks in
  let index = Hashtbl.create n in
  Array.iteri (fun k (b : Cfg.block) -> Hashtbl.replace index b.Cfg.b_start k) blocks;
  (* successors outside the function contribute nothing *)
  let succs =
    Array.map
      (fun b -> List.filter_map (Hashtbl.find_opt index) (Cfg.intra_succs b))
      blocks
  in
  let summaries = Array.map block_summary blocks in
  let fixed = Array.map fixed_live_out blocks in
  let live_in = Array.make n Regset.empty in
  let live_out = Array.make n Regset.empty in
  let order = sweep_order n succs (Hashtbl.find_opt index func.Cfg.f_entry) in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun k ->
        let lo =
          List.fold_left (fun acc s -> Regset.union acc live_in.(s)) fixed.(k) succs.(k)
        in
        let def, use = summaries.(k) in
        let li = Regset.union (Regset.diff lo def) use in
        live_out.(k) <- lo;
        if not (Regset.equal li live_in.(k)) then begin
          live_in.(k) <- li;
          changed := true
        end)
      order
  done;
  let table sets =
    let h = Hashtbl.create n in
    Array.iteri (fun k (b : Cfg.block) -> Hashtbl.replace h b.Cfg.b_start sets.(k)) blocks;
    h
  in
  { func; cfg; live_in = table live_in; live_out = table live_out }

let live_in analysis (baddr : int64) =
  Option.value (Hashtbl.find_opt analysis.live_in baddr) ~default:Regset.full

let live_out analysis (baddr : int64) =
  Option.value (Hashtbl.find_opt analysis.live_out baddr) ~default:Regset.full

(* Live registers immediately before the instruction at [addr] in [b]. *)
let live_before analysis (b : Cfg.block) (addr : int64) =
  let lo = live_out analysis b.Cfg.b_start in
  let is_call = block_is_call_site b in
  let rec go insns =
    match insns with
    | [] -> lo
    | ins :: rest ->
        let live_after = go rest in
        if Int64.compare ins.Instruction.addr addr < 0 then live_after
        else
          let is_call_insn = is_call && rest = [] in
          step_insn ins ~is_call:is_call_insn live_after
  in
  go b.Cfg.b_insns

(* Dead *allocatable* integer registers at a point: the complement of the
   live set, excluding registers that are never safe to clobber (x0, ra
   is fine if dead, but sp/gp/tp are reserved). *)
let never_allocatable = Regset.of_list [ Reg.zero; Reg.sp; Reg.gp; Reg.tp ]

let dead_int_regs_before analysis b addr =
  let live = live_before analysis b addr in
  List.filter
    (fun r -> Reg.is_int r && (not (Regset.mem live r)) && not (Regset.mem never_allocatable r))
    (List.init 32 (fun i -> i))

(* --- cacheable artifact ---------------------------------------------------- *)

(* Frozen per-function liveness summary: for every block (ascending start
   order), how many allocatable integer registers are dead at its entry.
   This is the dataflow slice of the rvserved `parse` artifact — a
   deterministic, immutable digest of the analysis, cheap to render and
   safe to share across worker domains once computed. *)
let dead_entry_summary (cfg : Cfg.t) (func : Cfg.func) : (int64 * int) list =
  let analysis = analyze cfg func in
  Cfg.blocks_of cfg func
  |> List.filter_map (fun (b : Cfg.block) ->
         match b.Cfg.b_insns with
         | [] -> None
         | first :: _ ->
             Some
               ( b.Cfg.b_start,
                 List.length
                   (dead_int_regs_before analysis b first.Instruction.addr) ))
  |> List.sort (fun (a, _) (b, _) -> Int64.compare a b)
