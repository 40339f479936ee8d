(* DataflowAPI tests: liveness (and the dead-register query used by the
   instrumentation optimizer), stack-height analysis, reaching
   definitions, forward/backward slicing, and the cross-check that
   semantics-derived def/use agrees with the hand-written tables. *)

open Riscv
open Parse_api
open Dataflow_api

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let text_base = 0x10000L

let build_cfg ?(funcs = [ ("main", "main") ]) items =
  let r = Asm.assemble ~base:text_base items in
  let symbols =
    List.map
      (fun (name, label) ->
        Elfkit.Types.symbol name (Asm.label_addr r label) ~sym_section:".text")
      funcs
  in
  let st =
    Symtab.of_image
      (Elfkit.Types.image ~entry:text_base ~symbols
         [
           Elfkit.Types.section ".text" r.Asm.code ~s_addr:text_base
             ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr);
         ])
  in
  (Parser.parse st, r)

let func cfg name =
  List.find (fun f -> f.Cfg.f_name = name) (Cfg.functions cfg)

(* --- liveness ------------------------------------------------------------- *)

let test_liveness_dead_regs () =
  let open Asm in
  let cfg, r =
    build_cfg
      [
        Label "main";
        Insn (Build.addi Reg.t0 Reg.zero 1);
        Insn (Build.add Reg.a0 Reg.t0 Reg.t0);
        Insn Build.ret;
      ]
  in
  let f = func cfg "main" in
  let lv = Liveness.analyze cfg f in
  let b = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  let dead = Liveness.dead_int_regs_before lv b (Int64.add (Asm.label_addr r "main") 4L) in
  checkb "t1 is a dead register" true (List.mem Reg.t1 dead);
  checkb "t0 is not dead" false (List.mem Reg.t0 dead);
  checkb "sp never allocatable" false (List.mem Reg.sp dead);
  checkb "callee-saved s2 not dead (live at return)" false (List.mem 18 dead)

let test_liveness_across_branch () =
  let open Asm in
  (* t0 is read only on one side of a branch: live at the branch *)
  let cfg, _ =
    build_cfg
      [
        Label "main";
        Insn (Build.addi Reg.t0 Reg.zero 7);
        Br (Op.BEQ, Reg.a0, Reg.zero, "skip");
        Insn (Build.add Reg.a1 Reg.t0 Reg.t0);
        Label "skip";
        Insn Build.ret;
      ]
  in
  let f = func cfg "main" in
  let lv = Liveness.analyze cfg f in
  let b = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  let live_out = Liveness.live_out lv b.Cfg.b_start in
  checkb "t0 live out of entry block" true (Regset.mem live_out Reg.t0)

let test_liveness_call_clobbers () =
  let open Asm in
  (* before a call, a caller-saved non-argument register (t2) holding a
     value only read after the call cannot be considered live (the callee
     may clobber it) -> it reads as dead before the call *)
  let cfg, r =
    build_cfg
      ~funcs:[ ("main", "main"); ("callee", "callee") ]
      [
        Label "main";
        Insn (Build.addi Reg.t2 Reg.zero 1);
        Call_l "callee";
        Insn (Build.add Reg.a0 Reg.t2 Reg.t2);
        Insn Build.ret;
        Label "callee";
        Insn Build.ret;
      ]
  in
  let f = func cfg "main" in
  let lv = Liveness.analyze cfg f in
  let b = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  let live = Liveness.live_before lv b (Asm.label_addr r "main") in
  (* a real tool would warn here: the program is buggy by ABI rules; the
     analysis must still say t2 is NOT live across the call *)
  checkb "t2 not live across call" false (Regset.mem live Reg.t2);
  (* argument registers are live at the call *)
  let call_addr = Int64.add (Asm.label_addr r "main") 4L in
  let live_call = Liveness.live_before lv b call_addr in
  checkb "a0 live at call (argument)" true (Regset.mem live_call Reg.a0)

let test_dead_regs_at_call_boundary () =
  let open Asm in
  (* right before a call: caller-saved temps not flowing into the call
     are dead (the callee may clobber them); argument registers are not *)
  let cfg, r =
    build_cfg
      ~funcs:[ ("main", "main"); ("callee", "callee") ]
      [
        Label "main";
        Insn (Build.addi Reg.t2 Reg.zero 1);
        Call_l "callee";
        Insn (Build.add Reg.a0 Reg.t2 Reg.t2);
        Insn Build.ret;
        Label "callee";
        Insn Build.ret;
      ]
  in
  let f = func cfg "main" in
  let lv = Liveness.analyze cfg f in
  let b = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  let call_addr = Int64.add (Asm.label_addr r "main") 4L in
  let dead = Liveness.dead_int_regs_before lv b call_addr in
  checkb "t2 dead at the call (killed by it)" true (List.mem Reg.t2 dead);
  checkb "a0 not dead at the call (argument)" false (List.mem Reg.a0 dead);
  (* the jal itself redefines ra before any use: its old value is dead *)
  checkb "ra dead right before the call" true (List.mem Reg.ra dead)

let test_dead_regs_at_return_boundary () =
  let open Asm in
  let cfg, r =
    build_cfg
      [
        Label "main";
        Insn (Build.addi Reg.t0 Reg.zero 1);
        Insn (Build.add Reg.a0 Reg.t0 Reg.t0);
        Insn Build.ret;
      ]
  in
  let f = func cfg "main" in
  let lv = Liveness.analyze cfg f in
  let b = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  let ret_addr = Int64.add (Asm.label_addr r "main") 8L in
  let dead = Liveness.dead_int_regs_before lv b ret_addr in
  checkb "t0 dead before the return" true (List.mem Reg.t0 dead);
  checkb "a0 live before the return (return value)" false (List.mem Reg.a0 dead);
  checkb "callee-saved s2 live at return" false (List.mem (Reg.x 18) dead)

let test_dead_regs_unresolved_indirect () =
  let open Asm in
  (* an unresolved indirect jump makes everything conservatively live:
     no scratch registers are available in the terminating block *)
  let cfg, r =
    build_cfg
      [
        Label "main";
        Insn (Build.ld Reg.t3 0 Reg.a0);
        Insn (Build.jr Reg.t3);
      ]
  in
  let f = func cfg "main" in
  let lv = Liveness.analyze cfg f in
  let b = Option.get (Cfg.block_at cfg f.Cfg.f_entry) in
  let jr_addr = Int64.add (Asm.label_addr r "main") 4L in
  Alcotest.(check (list int))
    "no dead registers before the unresolved jr" []
    (Liveness.dead_int_regs_before lv b jr_addr)

(* --- liveness differential ------------------------------------------------- *)

(* The reference solver: the textbook round-robin that sweeps the blocks
   in ascending address order, stepping every instruction, until nothing
   changes.  Quadratic on a chain of call blocks, but obviously right;
   the production solver (per-block summaries, postorder sweeps) must
   reach the same least fixpoint. *)
module Ref_liveness = struct
  let is_call_site (b : Cfg.block) =
    List.exists
      (fun e -> e.Cfg.ek = Cfg.E_call || e.Cfg.ek = Cfg.E_tail_call)
      b.Cfg.b_out

  let step (ins : Instruction.t) ~is_call live_after =
    let defs = Regset.of_list (Instruction.regs_written ins) in
    let uses = Regset.of_list (Instruction.regs_read ins) in
    let defs, uses =
      if is_call then
        ( Regset.union defs (Regset.diff Liveness.caller_saved Liveness.arg_regs),
          Regset.union uses Liveness.arg_regs )
      else (defs, uses)
    in
    Regset.union (Regset.diff live_after defs) uses

  (* live before the instruction at [addr] (the block entry for its
     first instruction), given the block's live-out *)
  let live_before (b : Cfg.block) live_out addr =
    let is_call = is_call_site b in
    let rec go = function
      | [] -> live_out
      | (ins : Instruction.t) :: rest ->
          let after = go rest in
          if Int64.compare ins.Instruction.addr addr < 0 then after
          else step ins ~is_call:(is_call && rest = []) after
    in
    go b.Cfg.b_insns

  let live_out live_in (b : Cfg.block) =
    if b.Cfg.b_out = [] then Regset.full
    else
      List.fold_left
        (fun acc e ->
          match (e.Cfg.ek, e.Cfg.e_dst) with
          | ( ( Cfg.E_fallthrough | Cfg.E_taken | Cfg.E_not_taken | Cfg.E_jump
              | Cfg.E_jump_table | Cfg.E_indirect | Cfg.E_call_ft ),
              Cfg.T_addr a ) ->
              Regset.union acc
                (Option.value (Hashtbl.find_opt live_in a) ~default:Regset.empty)
          | Cfg.E_return, _ -> Regset.union acc Liveness.live_at_return
          | Cfg.E_tail_call, _ ->
              Regset.union acc
                (Regset.union Liveness.arg_regs Liveness.callee_saved)
          | Cfg.E_call, _ -> acc
          | (Cfg.E_indirect | Cfg.E_jump | Cfg.E_jump_table), Cfg.T_unknown ->
              Regset.full
          | ( ( Cfg.E_fallthrough | Cfg.E_taken | Cfg.E_not_taken
              | Cfg.E_call_ft ),
              Cfg.T_unknown ) ->
              acc)
        Regset.empty b.Cfg.b_out

  (* (live_in, live_out) by block start *)
  let analyze cfg f =
    let blocks = Cfg.blocks_of cfg f in
    let live_in = Hashtbl.create 16 and outs = Hashtbl.create 16 in
    List.iter (fun (b : Cfg.block) -> Hashtbl.replace live_in b.Cfg.b_start Regset.empty) blocks;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (b : Cfg.block) ->
          let lo = live_out live_in b in
          Hashtbl.replace outs b.Cfg.b_start lo;
          let first =
            match b.Cfg.b_insns with [] -> b.Cfg.b_start | i :: _ -> i.Instruction.addr
          in
          let li = live_before b lo first in
          if not (Regset.equal li (Hashtbl.find live_in b.Cfg.b_start)) then begin
            Hashtbl.replace live_in b.Cfg.b_start li;
            changed := true
          end)
        blocks
    done;
    (live_in, outs)
end

(* Every block's live-in and live-out and the dead registers before
   every instruction, production vs reference, over all functions of
   [cfg]: the number of instructions compared and each disagreement. *)
let liveness_diff name cfg =
  let n = ref 0 and bad = ref [] in
  let expect what ok = if not ok then bad := what :: !bad in
  List.iter
    (fun (f : Cfg.func) ->
      let lv = Liveness.analyze cfg f in
      let ref_in, ref_out = Ref_liveness.analyze cfg f in
      List.iter
        (fun (b : Cfg.block) ->
          let where = Printf.sprintf "%s %s block 0x%Lx" name f.Cfg.f_name b.Cfg.b_start in
          let lo = Hashtbl.find ref_out b.Cfg.b_start in
          expect (where ^ " live_in")
            (Regset.equal (Liveness.live_in lv b.Cfg.b_start)
               (Hashtbl.find ref_in b.Cfg.b_start));
          expect (where ^ " live_out") (Regset.equal (Liveness.live_out lv b.Cfg.b_start) lo);
          List.iter
            (fun (ins : Instruction.t) ->
              let a = ins.Instruction.addr in
              let live = Ref_liveness.live_before b lo a in
              let dead =
                List.filter
                  (fun r ->
                    Reg.is_int r && (not (Regset.mem live r))
                    && not (Regset.mem Liveness.never_allocatable r))
                  (List.init 32 Fun.id)
              in
              incr n;
              expect
                (Printf.sprintf "%s dead before 0x%Lx" where a)
                (dead = Liveness.dead_int_regs_before lv b a))
            b.Cfg.b_insns)
        (Cfg.blocks_of cfg f))
    (Cfg.functions cfg);
  (!n, List.rev !bad)

let check_liveness_agrees name cfg =
  let n, bad = liveness_diff name cfg in
  Alcotest.(check (list string)) (name ^ ": production = reference") [] bad;
  checkb (name ^ ": instructions compared") true (n > 0)

let parse_image img = Parser.parse ~domains:1 (Symtab.of_image img)

let test_liveness_differential_builtins () =
  List.iter
    (fun (name, src) ->
      let img = (Minicc.Driver.compile (Lazy.force src)).Minicc.Driver.image in
      check_liveness_agrees name (parse_image img))
    Minicc.Programs.builtins

let test_liveness_differential_corpora () =
  List.iter
    (fun (seed, n_funcs) ->
      check_liveness_agrees
        (Printf.sprintf "corpus seed %Ld (%d funcs)" seed n_funcs)
        (parse_image (Check_api.Corpus.image ~seed ~index:0 ~n_funcs)))
    [ (1L, 16); (2L, 40); (3L, 90) ]

let test_liveness_differential_hostile () =
  (* unresolved edges, undecodable tails, symbols mid-stream; streams the
     parser rejects outright have no CFG to analyze *)
  let parsed = ref 0 in
  for k = 0 to 19 do
    let seed = Int64.of_int (4000 + k) in
    match Parser.parse ~domains:1 (Check_api.Parsediff.fuzz_symtab ~seed ~len:96) with
    | cfg ->
        incr parsed;
        check_liveness_agrees (Printf.sprintf "fuzz %Ld" seed) cfg
    | exception _ -> ()
  done;
  checkb "most hostile streams parse" true (!parsed >= 10)

(* --- register sets ---------------------------------------------------------- *)

let regset_gen =
  QCheck.Gen.(
    map
      (fun ids -> (Regset.of_list ids, List.sort_uniq compare ids))
      (list_size (int_bound 24) (int_bound (Reg.n_regs - 1))))

let regset_arb =
  QCheck.make
    ~print:(fun (s, _) -> Regset.to_string s)
    regset_gen

let prop_regset_fold_iter =
  QCheck.Test.make ~name:"fold and iter agree with elements" ~count:500
    regset_arb (fun (s, ids) ->
      let folded = List.rev (Regset.fold List.cons s []) in
      let itered = ref [] in
      Regset.iter (fun r -> itered := r :: !itered) s;
      folded = Regset.elements s
      && List.rev !itered = Regset.elements s
      && folded = ids)

let prop_regset_subset =
  QCheck.Test.make ~name:"subset = pointwise membership" ~count:500
    (QCheck.pair regset_arb regset_arb)
    (fun ((a, _), (b, _)) ->
      Regset.subset a b
      = List.for_all (Regset.mem b) (Regset.elements a)
      && Regset.subset a (Regset.union a b)
      && Regset.subset (Regset.inter a b) a)

(* --- defs/uses cross-check ------------------------------------------------ *)

let prop_semantics_agree_handwritten =
  (* reuse the generator idea: build instructions for every opcode with
     fixed fields and compare def/use from the two sources *)
  QCheck.Test.make ~name:"semantics defs/uses = hand-written tables" ~count:1000
    (QCheck.make
       ~print:(fun i -> Insn.to_string i)
       QCheck.Gen.(
         let ops = Array.of_list (List.map (fun (op, _, _, _) -> op) Op.table) in
         let* op = oneofa ops in
         let* rd = int_range 0 31 and* rs1 = int_range 0 31 and* rs2 = int_range 0 31 in
         let* rs3 = int_range 0 31 in
         let* csr = oneofl [ 0x001; 0x003; 0xC00 ] in
         return (Insn.make ~rd ~rs1 ~rs2 ~rs3 ~csr op)))
    (fun i ->
      let d1, u1 = Semantics.defs_uses i in
      let d2, u2 = Semantics.defs_uses_handwritten i in
      if d1 = d2 && u1 = u2 then true
      else
        QCheck.Test.fail_reportf
          "%s: sem defs=%s uses=%s vs hand defs=%s uses=%s" (Insn.to_string i)
          (String.concat "," (List.map Reg.name d1))
          (String.concat "," (List.map Reg.name u1))
          (String.concat "," (List.map Reg.name d2))
          (String.concat "," (List.map Reg.name u2)))

(* --- stack height ----------------------------------------------------------- *)

let test_stack_height () =
  let open Asm in
  let cfg, r =
    build_cfg
      [
        Label "main";
        Insn (Build.addi Reg.sp Reg.sp (-32));
        Insn (Build.sd Reg.ra 24 Reg.sp);
        Br (Op.BEQ, Reg.a0, Reg.zero, "out");
        Insn (Build.addi Reg.a0 Reg.a0 1);
        Label "out";
        Insn (Build.ld Reg.ra 24 Reg.sp);
        Insn (Build.addi Reg.sp Reg.sp 32);
        Insn Build.ret;
      ]
  in
  let f = func cfg "main" in
  let sh = Stack_height.analyze cfg f in
  checkb "entry is 0" true
    (Stack_height.at_block_entry sh f.Cfg.f_entry = Stack_height.Known 0);
  let out_addr = Asm.label_addr r "out" in
  checkb "join sees -32" true
    (Stack_height.at_block_entry sh out_addr = Stack_height.Known (-32));
  checki "frame size" 32 (Stack_height.frame_size sh)

let test_stack_height_unknown () =
  let open Asm in
  (* sp modified by a non-constant amount -> Unknown after *)
  let cfg, r =
    build_cfg
      [
        Label "main";
        Insn (Build.sub Reg.sp Reg.sp Reg.a0);
        J "next";
        Label "next";
        Insn Build.ret;
      ]
  in
  let f = func cfg "main" in
  let sh = Stack_height.analyze cfg f in
  checkb "unknown after dynamic alloca" true
    (Stack_height.at_block_entry sh (Asm.label_addr r "next") = Stack_height.Unknown)

(* --- slicing ----------------------------------------------------------------- *)

let slicing_program =
  let open Asm in
  [
    Label "main";
    Insn (Build.addi Reg.t0 Reg.zero 5); (* A: t0 = 5 *)
    Insn (Build.addi Reg.t1 Reg.t0 1); (* B: t1 = t0 + 1 *)
    Insn (Build.addi Reg.t2 Reg.zero 9); (* C: t2 = 9 (unrelated) *)
    Insn (Build.mul Reg.a0 Reg.t1 Reg.t1); (* D: a0 = t1 * t1 *)
    Insn Build.ret;
  ]

let test_backward_slice () =
  let cfg, r = build_cfg slicing_program in
  let f = func cfg "main" in
  let base = Asm.label_addr r "main" in
  let a = base and b = Int64.add base 4L and c = Int64.add base 8L
  and d = Int64.add base 12L in
  let sl = Slicing.backward cfg f ~addr:d ~reg:Reg.t1 in
  checkb "complete" true sl.Slicing.s_complete;
  checkb "includes B" true (Slicing.I64Set.mem b sl.Slicing.s_insns);
  checkb "includes A" true (Slicing.I64Set.mem a sl.Slicing.s_insns);
  checkb "excludes C" false (Slicing.I64Set.mem c sl.Slicing.s_insns);
  checkb "excludes D itself" false (Slicing.I64Set.mem d sl.Slicing.s_insns)

let test_forward_slice () =
  let cfg, r = build_cfg slicing_program in
  let f = func cfg "main" in
  let base = Asm.label_addr r "main" in
  let a = base and b = Int64.add base 4L and c = Int64.add base 8L
  and d = Int64.add base 12L in
  let sl = Slicing.forward cfg f ~addr:a in
  checkb "affects B" true (Slicing.I64Set.mem b sl.Slicing.s_insns);
  checkb "affects D" true (Slicing.I64Set.mem d sl.Slicing.s_insns);
  checkb "not C" false (Slicing.I64Set.mem c sl.Slicing.s_insns)

let test_slice_incomplete_from_args () =
  let open Asm in
  (* a0 comes from the caller: backward slice must be incomplete *)
  let cfg, r =
    build_cfg
      [
        Label "main";
        Insn (Build.addi Reg.t0 Reg.a0 1);
        Insn (Build.mv Reg.a0 Reg.t0);
        Insn Build.ret;
      ]
  in
  let f = func cfg "main" in
  let base = Asm.label_addr r "main" in
  let sl = Slicing.backward cfg f ~addr:(Int64.add base 4L) ~reg:Reg.t0 in
  checkb "incomplete (value from caller)" false sl.Slicing.s_complete

let test_slice_through_memory () =
  let open Asm in
  (* value goes through the stack: store then load *)
  let cfg, r =
    build_cfg
      [
        Label "main";
        Insn (Build.addi Reg.sp Reg.sp (-16));
        Insn (Build.addi Reg.t0 Reg.zero 42); (* S0: source *)
        Insn (Build.sd Reg.t0 8 Reg.sp); (* S1: store *)
        Insn (Build.ld Reg.t1 8 Reg.sp); (* S2: load *)
        Insn (Build.add Reg.a0 Reg.t1 Reg.t1); (* S3 *)
        Insn (Build.addi Reg.sp Reg.sp 16);
        Insn Build.ret;
      ]
  in
  let f = func cfg "main" in
  let base = Asm.label_addr r "main" in
  let s0 = Int64.add base 4L and s1 = Int64.add base 8L
  and s3 = Int64.add base 16L in
  let sl = Slicing.backward ~follow_memory:true cfg f ~addr:s3 ~reg:Reg.t1 in
  checkb "store included" true (Slicing.I64Set.mem s1 sl.Slicing.s_insns);
  checkb "source included" true (Slicing.I64Set.mem s0 sl.Slicing.s_insns);
  (* without memory following, slice marks itself incomplete *)
  let sl2 = Slicing.backward ~follow_memory:false cfg f ~addr:s3 ~reg:Reg.t1 in
  checkb "incomplete w/o memory" false sl2.Slicing.s_complete

let () =
  Alcotest.run "dataflow"
    [
      ( "liveness",
        [
          Alcotest.test_case "dead registers" `Quick test_liveness_dead_regs;
          Alcotest.test_case "across branch" `Quick test_liveness_across_branch;
          Alcotest.test_case "call clobbers" `Quick test_liveness_call_clobbers;
          Alcotest.test_case "dead regs at call boundary" `Quick
            test_dead_regs_at_call_boundary;
          Alcotest.test_case "dead regs at return boundary" `Quick
            test_dead_regs_at_return_boundary;
          Alcotest.test_case "dead regs at unresolved indirect" `Quick
            test_dead_regs_unresolved_indirect;
          Alcotest.test_case "differential: builtins" `Quick
            test_liveness_differential_builtins;
          Alcotest.test_case "differential: seeded corpora" `Quick
            test_liveness_differential_corpora;
          Alcotest.test_case "differential: hostile streams" `Quick
            test_liveness_differential_hostile;
        ] );
      ( "regset",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_regset_fold_iter;
          QCheck_alcotest.to_alcotest ~long:false prop_regset_subset;
        ] );
      ( "defs-uses",
        [ QCheck_alcotest.to_alcotest ~long:false prop_semantics_agree_handwritten ] );
      ( "stack-height",
        [
          Alcotest.test_case "frame tracking" `Quick test_stack_height;
          Alcotest.test_case "dynamic alloca" `Quick test_stack_height_unknown;
        ] );
      ( "slicing",
        [
          Alcotest.test_case "backward" `Quick test_backward_slice;
          Alcotest.test_case "forward" `Quick test_forward_slice;
          Alcotest.test_case "incomplete from args" `Quick
            test_slice_incomplete_from_args;
          Alcotest.test_case "through memory" `Quick test_slice_through_memory;
        ] );
    ]
