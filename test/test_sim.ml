(* Simulator tests: run small assembled programs end-to-end through the
   ELF writer, loader and interpreter, checking architectural semantics
   and the syscall layer. *)

open Riscv
open Rvsim

let checks = Alcotest.(check string)
let check64 = Alcotest.(check int64)

let text_base = 0x10000L
let data_base = 0x20000L

(* Assemble [items] at a fixed base, wrap in an ELF image, load it. *)
let build_process ?(data = Bytes.empty) items =
  let r = Asm.assemble ~base:text_base items in
  let sections =
    [
      Elfkit.Types.section ".text" r.Asm.code ~s_addr:text_base
        ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr) ~s_addralign:4;
    ]
    @
    if Bytes.length data = 0 then []
    else
      [
        Elfkit.Types.section ".data" data ~s_addr:data_base
          ~s_flags:Elfkit.Types.(shf_alloc lor shf_write) ~s_addralign:8;
      ]
  in
  let img = Elfkit.Types.image ~entry:text_base sections in
  (Loader.load img, r)

let run_items ?data items =
  let p, _ = build_process ?data items in
  let stop, out = Loader.run p in
  (stop, out, p)

(* exit with the value in a0: a7=93; ecall *)
let exit_with_a0 = [ Asm.Insn (Build.addi Reg.a7 Reg.zero 93); Asm.Insn Build.ecall ]

let exit_code = function
  | Machine.Exited c -> c
  | s -> Alcotest.failf "expected exit, got %a" Machine.pp_stop s

let test_arith_loop () =
  (* sum 1..10 into a0 *)
  let open Asm in
  let items =
    [
      Insn (Build.addi Reg.a0 Reg.zero 0);
      Insn (Build.addi Reg.t0 Reg.zero 1);
      Label "loop";
      Insn (Build.add Reg.a0 Reg.a0 Reg.t0);
      Insn (Build.addi Reg.t0 Reg.t0 1);
      Insn (Build.slti Reg.t1 Reg.t0 11);
      Br (Op.BNE, Reg.t1, Reg.zero, "loop");
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items items in
  Alcotest.(check int) "sum" 55 (exit_code stop)

let test_function_call () =
  let open Asm in
  (* main calls double(21), exits with result *)
  let items =
    [
      Insn (Build.addi Reg.a0 Reg.zero 21);
      Call_l "double";
      J "done";
      Label "double";
      Insn (Build.add Reg.a0 Reg.a0 Reg.a0);
      Insn Build.ret;
      Label "done";
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items items in
  Alcotest.(check int) "doubled" 42 (exit_code stop)

let test_memory_and_data () =
  let open Asm in
  (* load a word from .data, add 1, store back, reload, exit with it *)
  let data = Bytes.create 8 in
  Bytes.set_int64_le data 0 99L;
  let items =
    [
      Li (Reg.t0, data_base);
      Insn (Build.ld Reg.a0 0 Reg.t0);
      Insn (Build.addi Reg.a0 Reg.a0 1);
      Insn (Build.sd Reg.a0 0 Reg.t0);
      Insn (Build.ld Reg.a0 0 Reg.t0);
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items ~data items in
  Alcotest.(check int) "incremented" 100 (exit_code stop)

let test_write_syscall () =
  let open Asm in
  let msg = "hello from rvsim\n" in
  let data = Bytes.of_string msg in
  let items =
    [
      Insn (Build.addi Reg.a0 Reg.zero 1);
      Li (Reg.a1, data_base);
      Insn (Build.addi Reg.a2 Reg.zero (String.length msg));
      Insn (Build.addi Reg.a7 Reg.zero 64);
      Insn Build.ecall;
      Insn (Build.addi Reg.a0 Reg.zero 0);
    ]
    @ exit_with_a0
  in
  let stop, out, _ = run_items ~data items in
  Alcotest.(check int) "exit 0" 0 (exit_code stop);
  checks "stdout" msg out

let test_clock_gettime_advances () =
  let open Asm in
  (* read time twice around a delay loop; exit with (t1 > t0) *)
  let items =
    [
      (* first clock_gettime(0, sp-32) *)
      Insn (Build.addi Reg.sp Reg.sp (-64));
      Insn (Build.addi Reg.a0 Reg.zero 0);
      Insn (Build.mv Reg.a1 Reg.sp);
      Insn (Build.addi Reg.a7 Reg.zero 113);
      Insn Build.ecall;
      Insn (Build.ld Reg.s0 8 Reg.sp);
      (* delay loop: 100000 iterations *)
      Li (Reg.t0, 100_000L);
      Label "delay";
      Insn (Build.addi Reg.t0 Reg.t0 (-1));
      Br (Op.BNE, Reg.t0, Reg.zero, "delay");
      (* second clock_gettime *)
      Insn (Build.addi Reg.a0 Reg.zero 0);
      Insn (Build.mv Reg.a1 Reg.sp);
      Insn (Build.addi Reg.a7 Reg.zero 113);
      Insn Build.ecall;
      Insn (Build.ld Reg.s1 8 Reg.sp);
      Insn (Build.sltu Reg.a0 Reg.s0 Reg.s1);
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items items in
  Alcotest.(check int) "time advanced" 1 (exit_code stop)

let test_double_arithmetic () =
  let open Asm in
  (* 1.5 * 2.0 + 0.5 = 3.5; compare against constant, exit 1 on equal *)
  let data = Bytes.create 24 in
  Bytes.set_int64_le data 0 (Int64.bits_of_float 1.5);
  Bytes.set_int64_le data 8 (Int64.bits_of_float 2.0);
  Bytes.set_int64_le data 16 (Int64.bits_of_float 3.5);
  let f0 = Reg.f 0 and f1 = Reg.f 1 and f2 = Reg.f 2 in
  let items =
    [
      Li (Reg.t0, data_base);
      Insn (Build.fld f0 0 Reg.t0);
      Insn (Build.fld f1 8 Reg.t0);
      Insn (Build.fmul_d f0 f0 f1);
      Li (Reg.t1, Int64.bits_of_float 0.5);
      Insn (Build.fmv_d_x f1 Reg.t1);
      Insn (Build.fadd_d f0 f0 f1);
      Insn (Build.fld f2 16 Reg.t0);
      Insn (Build.feq_d Reg.a0 f0 f2);
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items ~data items in
  Alcotest.(check int) "3.5" 1 (exit_code stop)

let test_fcvt_and_fclass () =
  let open Asm in
  let items =
    [
      (* a0 = (int) 7.9 (RTZ) *)
      Li (Reg.t0, Int64.bits_of_float 7.9);
      Insn (Build.fmv_d_x (Reg.f 0) Reg.t0);
      Insn (Build.fcvt_l_d Reg.a0 (Reg.f 0));
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items items in
  Alcotest.(check int) "truncated" 7 (exit_code stop)

let test_mulh_div () =
  let open Asm in
  let items =
    [
      (* mulh(2^62, 4) = 2^64/2^64... (2^62 * 4) >> 64 = 1 *)
      Li (Reg.t0, Int64.shift_left 1L 62);
      Insn (Build.addi Reg.t1 Reg.zero 4);
      Insn (Insn.make ~rd:Reg.a0 ~rs1:Reg.t0 ~rs2:Reg.t1 Op.MULH);
      (* plus div: 100 / 7 = 14 -> a0 = 1 + 14 = 15 *)
      Insn (Build.addi Reg.t0 Reg.zero 100);
      Insn (Build.addi Reg.t1 Reg.zero 7);
      Insn (Build.div Reg.t2 Reg.t0 Reg.t1);
      Insn (Build.add Reg.a0 Reg.a0 Reg.t2);
      (* div by zero must give -1: add (t3 = 5 / 0) + 1 = 0 *)
      Insn (Build.addi Reg.t0 Reg.zero 5);
      Insn (Build.div Reg.t3 Reg.t0 Reg.zero);
      Insn (Build.addi Reg.t3 Reg.t3 1);
      Insn (Build.add Reg.a0 Reg.a0 Reg.t3);
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items items in
  Alcotest.(check int) "mulh+div" 15 (exit_code stop)

let test_amo_and_lrsc () =
  let open Asm in
  let data = Bytes.create 8 in
  Bytes.set_int64_le data 0 10L;
  let items =
    [
      Li (Reg.t0, data_base);
      (* amoadd.d t1, 5, (t0): t1 = 10, mem = 15 *)
      Insn (Build.addi Reg.t2 Reg.zero 5);
      Insn (Insn.make ~rd:Reg.t1 ~rs1:Reg.t0 ~rs2:Reg.t2 Op.AMOADD_D);
      (* lr/sc: load 15, store 20, success -> t3 = 0 *)
      Insn (Insn.make ~rd:Reg.t4 ~rs1:Reg.t0 Op.LR_D);
      Insn (Build.addi Reg.t5 Reg.t4 5);
      Insn (Insn.make ~rd:Reg.t3 ~rs1:Reg.t0 ~rs2:Reg.t5 Op.SC_D);
      (* a0 = old(10) + mem(20) + sc_result(0) = 30 *)
      Insn (Build.ld Reg.t6 0 Reg.t0);
      Insn (Build.add Reg.a0 Reg.t1 Reg.t6);
      Insn (Build.add Reg.a0 Reg.a0 Reg.t3);
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items ~data items in
  Alcotest.(check int) "amo/lrsc" 30 (exit_code stop)

let test_compressed_execution () =
  (* hand-encode compressed instructions in the text stream *)
  let open Asm in
  let c_li_a0_31 = Encode.compress (Build.addi Reg.a0 Reg.zero 31) in
  let c_addi_a0_9 = Encode.compress (Build.addi Reg.a0 Reg.a0 9) in
  let hw v =
    let b = Bytes.create 2 in
    Bytes.set_uint16_le b 0 (Option.get v);
    Raw (Bytes.to_string b)
  in
  let items = [ hw c_li_a0_31; hw c_addi_a0_9 ] @ exit_with_a0 in
  let stop, _, _ = run_items items in
  Alcotest.(check int) "compressed li+addi" 40 (exit_code stop)

let test_ebreak_stops () =
  let open Asm in
  let items = [ Insn (Build.addi Reg.a0 Reg.zero 7); Insn Build.ebreak ] in
  let stop, _, _ = run_items items in
  match stop with
  | Machine.Ebreak pc -> check64 "pc of ebreak" (Int64.add text_base 4L) pc
  | s -> Alcotest.failf "expected ebreak, got %a" Machine.pp_stop s

let test_fault_on_garbage () =
  let open Asm in
  (* jump into non-code memory *)
  let items = [ Li (Reg.t0, 0x500000L); Insn (Build.jr Reg.t0) ] in
  let stop, _, _ = run_items items in
  match stop with
  | Machine.Fault (_, _) -> ()
  | s -> Alcotest.failf "expected fault, got %a" Machine.pp_stop s

let test_step_limit () =
  let open Asm in
  let items = [ Label "spin"; J "spin" ] in
  let p, _ = build_process items in
  match Machine.run ~max_steps:1000 p.Loader.machine with
  | Machine.Limit -> ()
  | s -> Alcotest.failf "expected limit, got %a" Machine.pp_stop s

let test_fence_i_flushes () =
  let open Asm in
  (* self-modifying code: overwrite "addi a0,zero,1" with "addi a0,zero,2"
     after it has been executed once (so it is cached), then fence.i and
     re-run it.  Without the icache flush the stale decode would yield 3. *)
  let patch_word =
    let b = Encode.encode (Build.addi Reg.a0 Reg.zero 2) in
    Bytes.get_int32_le b 0
  in
  let items =
    [
      Insn (Build.addi Reg.s0 Reg.zero 0);
      Label "target";
      Insn (Build.addi Reg.a0 Reg.zero 1);
      (* only patch on the first pass *)
      Br (Op.BNE, Reg.s0, Reg.zero, "after");
      Insn (Build.addi Reg.s0 Reg.zero 1);
      La (Reg.t0, "target");
      Li (Reg.t1, Int64.of_int32 patch_word);
      Insn (Build.sw Reg.t1 0 Reg.t0);
      Insn (Insn.make Op.FENCE_I);
      J "target";
      Label "after";
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items items in
  Alcotest.(check int) "patched result" 2 (exit_code stop)


let test_zbb_extension () =
  (* the paper's 3.4 extensibility story: Zba/Zbb added to the opcode
     table and SAIL spec flow through to execution *)
  let open Asm in
  let items =
    [
      (* clz(1 << 4) = 59; ctz(0x50) = 4; cpop(0xFF) = 8 *)
      Insn (Build.addi Reg.t0 Reg.zero 16);
      Insn (Insn.make ~rd:Reg.t1 ~rs1:Reg.t0 Op.CLZ);
      Insn (Build.addi Reg.t0 Reg.zero 0x50);
      Insn (Insn.make ~rd:Reg.t2 ~rs1:Reg.t0 Op.CTZ);
      Insn (Build.addi Reg.t0 Reg.zero 0xFF);
      Insn (Insn.make ~rd:Reg.t3 ~rs1:Reg.t0 Op.CPOP);
      (* max(-5, 3) = 3; sh2add(3, 100) = 112 *)
      Insn (Build.addi Reg.t4 Reg.zero (-5));
      Insn (Build.addi Reg.t5 Reg.zero 3);
      Insn (Insn.make ~rd:Reg.t4 ~rs1:Reg.t4 ~rs2:Reg.t5 Op.MAX);
      Insn (Build.addi Reg.t6 Reg.zero 100);
      Insn (Insn.make ~rd:Reg.t5 ~rs1:Reg.t5 ~rs2:Reg.t6 Op.SH2ADD);
      (* a0 = 59 + 4 + 8 + 3 + 112 = 186 *)
      Insn (Build.add Reg.a0 Reg.t1 Reg.t2);
      Insn (Build.add Reg.a0 Reg.a0 Reg.t3);
      Insn (Build.add Reg.a0 Reg.a0 Reg.t4);
      Insn (Build.add Reg.a0 Reg.a0 Reg.t5);
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items items in
  Alcotest.(check int) "zbb arithmetic" 186 (exit_code stop)

let test_rev8_orcb () =
  let open Asm in
  let items =
    [
      Li (Reg.t0, 0x0102030405060708L);
      Insn (Insn.make ~rd:Reg.t1 ~rs1:Reg.t0 Op.REV8);
      Li (Reg.t2, 0x0807060504030201L);
      Insn (Build.sub Reg.a0 Reg.t1 Reg.t2) (* 0 if byte swap correct *);
      Li (Reg.t0, 0x0100003000000005L);
      Insn (Insn.make ~rd:Reg.t1 ~rs1:Reg.t0 Op.ORC_B);
      Li (Reg.t2, 0xFF0000FF000000FFL);
      Insn (Build.sub Reg.t3 Reg.t1 Reg.t2);
      Insn (Build.add Reg.a0 Reg.a0 Reg.t3);
      Insn (Build.snez Reg.a0 Reg.a0);
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items items in
  Alcotest.(check int) "rev8 + orc.b" 0 (exit_code stop)

let test_cycle_accounting () =
  let open Asm in
  let items = [ Insn Build.nop; Insn Build.nop ] @ exit_with_a0 in
  let p, _ = build_process items in
  let _ = Machine.run p.Loader.machine in
  let m = p.Loader.machine in
  (* the exiting ecall does not retire: 2 nops + addi a7 *)
  check64 "instret" 3L m.Machine.instret;
  check64 "cycles" 3L m.Machine.cycles

(* --- CSRs, HPM counters and the sampling timer --------------------------- *)

let csrrw rd csr rs1 = Asm.Insn (Riscv.Insn.make ~rd ~rs1 ~csr Op.CSRRW)

let test_illegal_csr_faults () =
  (* reading an unimplemented CSR must raise an illegal-instruction
     fault at the executing pc, not silently read 0 *)
  let open Asm in
  let items = [ Insn (Build.csrrs Reg.t0 0x7C0 Reg.zero) ] @ exit_with_a0 in
  let stop, _, _ = run_items items in
  match stop with
  | Machine.Fault (msg, pc) ->
      check64 "faulting pc" text_base pc;
      let contains hay needle =
        let nh = String.length hay and nn = String.length needle in
        let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool)
        (Printf.sprintf "message names the csr (%s)" msg)
        true (contains msg "csr")
  | s -> Alcotest.failf "expected illegal-csr fault, got %a" Machine.pp_stop s

let test_invalid_selector_faults () =
  (* writing a selector value outside the implemented event set faults *)
  let open Asm in
  let items =
    [ Insn (Build.addi Reg.t0 Reg.zero 99); csrrw Reg.zero 0x323 Reg.t0 ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items items in
  match stop with
  | Machine.Fault (_, _) -> ()
  | s -> Alcotest.failf "expected fault, got %a" Machine.pp_stop s

let test_mscratch_roundtrip () =
  let open Asm in
  let items =
    [
      Li (Reg.t0, 0x1234ABCDL);
      csrrw Reg.zero 0x340 Reg.t0;
      Insn (Build.csrrs Reg.a0 0x340 Reg.zero);
      Li (Reg.t1, 0x1234ABCDL);
      Insn (Build.sub Reg.a0 Reg.a0 Reg.t1);
      Insn (Build.snez Reg.a0 Reg.a0);
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items items in
  Alcotest.(check int) "mscratch roundtrip" 0 (exit_code stop)

let test_counter_writes_ignored () =
  (* the user-mode counter aliases are read-only: writes are dropped,
     not trapped (the sail spec's CSRRS x0 path writes unconditionally) *)
  let open Asm in
  let items =
    [
      Li (Reg.t0, 999L);
      csrrw Reg.zero 0xC00 Reg.t0 (* write to cycle: ignored *);
      Insn (Build.rdcycle Reg.a0);
      Insn (Build.sltiu Reg.a0 Reg.a0 900) (* still small -> 1 *);
      Insn (Build.xori Reg.a0 Reg.a0 1);
    ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items items in
  Alcotest.(check int) "cycle unchanged by write" 0 (exit_code stop)

let test_hpm_event_counting () =
  (* a 10-iteration load/store loop with the four default events
     programmed: 10 branches (9 taken), 10 loads, 10 stores *)
  let open Asm in
  let program sel csr = [ Insn (Build.addi Reg.t4 Reg.zero sel); csrrw Reg.zero csr Reg.t4 ] in
  let expect csr want tmp =
    [
      Insn (Build.csrrs tmp csr Reg.zero);
      Insn (Build.addi tmp tmp (-want));
      Insn (Build.snez tmp tmp);
    ]
  in
  let items =
    program 1 0x323 (* branch    -> mhpmcounter3 *)
    @ program 2 0x324 (* taken     -> mhpmcounter4 *)
    @ program 3 0x325 (* load      -> mhpmcounter5 *)
    @ program 4 0x326 (* store     -> mhpmcounter6 *)
    @ [
        Insn (Build.addi Reg.t0 Reg.zero 0);
        Li (Reg.t2, data_base);
        Label "loop";
        Insn (Build.sd Reg.t0 0 Reg.t2);
        Insn (Build.ld Reg.t3 0 Reg.t2);
        Insn (Build.addi Reg.t0 Reg.t0 1);
        Insn (Build.slti Reg.t1 Reg.t0 10);
        Br (Op.BNE, Reg.t1, Reg.zero, "loop");
      ]
    @ expect 0xC03 10 Reg.a2 (* branches retired *)
    @ expect 0xC04 9 Reg.a3 (* taken back-edges *)
    @ expect 0xC05 10 Reg.a4 (* loads *)
    @ expect 0xC06 10 Reg.a5 (* stores *)
    @ [
        Insn (Build.or_ Reg.a0 Reg.a2 Reg.a3);
        Insn (Build.or_ Reg.a0 Reg.a0 Reg.a4);
        Insn (Build.or_ Reg.a0 Reg.a0 Reg.a5);
      ]
    @ exit_with_a0
  in
  let stop, _, _ = run_items ~data:(Bytes.create 8) items in
  Alcotest.(check int) "hpm counts" 0 (exit_code stop)

let test_timer_deterministic () =
  (* the cycle timer fires every period cycles, deterministically: two
     identical runs observe the same fire count at the same cycles *)
  let open Asm in
  let items =
    [
      Insn (Build.addi Reg.t0 Reg.zero 0);
      Label "loop";
      Insn (Build.addi Reg.t0 Reg.t0 1);
      Insn (Build.slti Reg.t1 Reg.t0 500);
      Br (Op.BNE, Reg.t1, Reg.zero, "loop");
    ]
    @ exit_with_a0
  in
  let observe () =
    let p, _ = build_process items in
    let m = p.Loader.machine in
    let fires = ref [] in
    Machine.set_timer m ~period:100L (fun m ->
        fires := m.Machine.cycles :: !fires);
    let _ = Machine.run m in
    (List.rev !fires, m.Machine.cycles)
  in
  let fires1, total1 = observe () in
  let fires2, total2 = observe () in
  Alcotest.(check (list int64)) "same fire cycles" fires1 fires2;
  check64 "same total cycles" total1 total2;
  Alcotest.(check bool)
    (Printf.sprintf "fired ~cycles/period times (%d fires, %Ld cycles)"
       (List.length fires1) total1)
    true
    (abs (List.length fires1 - Int64.to_int (Int64.div total1 100L)) <= 1);
  List.iter
    (fun c ->
      Alcotest.(check bool) "fires at or after each deadline" true
        (Int64.rem c 100L >= 0L))
    fires1

let test_timer_clear () =
  let open Asm in
  let items =
    [
      Insn (Build.addi Reg.t0 Reg.zero 0);
      Label "loop";
      Insn (Build.addi Reg.t0 Reg.t0 1);
      Insn (Build.slti Reg.t1 Reg.t0 500);
      Br (Op.BNE, Reg.t1, Reg.zero, "loop");
    ]
    @ exit_with_a0
  in
  let p, _ = build_process items in
  let m = p.Loader.machine in
  let fires = ref 0 in
  Machine.set_timer m ~period:50L (fun m ->
      incr fires;
      if !fires = 3 then Machine.clear_timer m);
  let _ = Machine.run m in
  Alcotest.(check int) "stopped after clear_timer" 3 !fires

(* --- bulk memory, region lookup and the superblock engine ----------------- *)

let test_mem_bulk_roundtrip () =
  (* write_bytes/read_bytes across several pages, starting mid-page *)
  let m = Mem.create () in
  let n = 12_000 (* ~3 pages *) in
  let src = Bytes.init n (fun k -> Char.chr ((k * 7) land 0xFF)) in
  let base = 0x1FF0L (* 16 bytes before a page boundary *) in
  Mem.write_bytes m base src;
  let back = Mem.read_bytes m base n in
  Alcotest.(check bool) "multi-page roundtrip" true (Bytes.equal src back);
  (* the chunked writes must land at the same addresses byte writes do *)
  Alcotest.(check int) "first byte" (Char.code (Bytes.get src 0)) (Mem.read8 m base);
  Alcotest.(check int) "byte across the boundary"
    (Char.code (Bytes.get src 16))
    (Mem.read8 m 0x2000L);
  Alcotest.(check int) "last byte"
    (Char.code (Bytes.get src (n - 1)))
    (Mem.read8 m (Int64.add base (Int64.of_int (n - 1))))

let test_mem_read_string_pages () =
  let m = Mem.create () in
  (* a string whose NUL sits on the far side of a page boundary *)
  let s = String.init 40 (fun k -> Char.chr (Char.code 'a' + (k mod 26))) in
  let base = 0x2FE0L in
  Mem.write_bytes m base (Bytes.of_string (s ^ "\000"));
  Alcotest.(check string) "crosses the page" s (Mem.read_string m base 256);
  (* max_len cuts an unterminated run (fresh pages read as NULs, so probe
     inside the written bytes) *)
  Alcotest.(check string) "max_len cutoff" (String.sub s 0 8)
    (Mem.read_string m base 8)

let test_find_region_many () =
  (* trampoline-style region population: many disjoint regions added out
     of base order, then looked up at bases, interiors, ends and gaps *)
  let m = Machine.create () in
  List.iter
    (fun b -> ignore (Machine.add_code_region m ~base:b ~size:0x800))
    [ 0x9000L; 0x1000L; 0x5000L; 0x3000L; 0x7000L ];
  let base_at pc =
    match Machine.find_region m pc with
    | Some r -> r.Machine.r_base
    | None -> -1L
  in
  check64 "own base" 0x1000L (base_at 0x1000L);
  check64 "interior" 0x5000L (base_at 0x53FEL);
  check64 "last byte" 0x30FFL (Int64.add (base_at 0x37FFL) 0xFFL);
  check64 "highest region" 0x9000L (base_at 0x97FFL);
  (* alternate between far-apart regions: defeats the last-region cache *)
  check64 "lowest again" 0x1000L (base_at 0x17FFL);
  check64 "below all" (-1L) (base_at 0xFFFL);
  check64 "gap between regions" (-1L) (base_at 0x1800L);
  check64 "just past the end" (-1L) (base_at 0x9800L)

(* Self-modification under the block cache: block A ends in a direct
   jump chained to block B; B's body is patched (store + fence.i) after
   the chain is hot, and the patched bytes must execute on re-entry even
   though the stale B was only reachable through A's chain slot. *)
let selfmod_chain_items =
  let open Asm in
  let patch_word =
    let b = Encode.encode (Build.addi Reg.a0 Reg.zero 20) in
    Bytes.get_int64_le (Bytes.cat b (Bytes.make 4 '\000')) 0
  in
  [
    Insn (Build.addi Reg.s0 Reg.zero 0);
    Label "loop";
    J "body" (* block A: chained tail-to-head to B *);
    Label "body";
    Insn (Build.addi Reg.a0 Reg.zero 10) (* block B body: the patch target *);
    Br (Op.BNE, Reg.s0, Reg.zero, "after");
    Insn (Build.addi Reg.s0 Reg.zero 1);
    La (Reg.t0, "body");
    Li (Reg.t1, patch_word);
    Insn (Build.sw Reg.t1 0 Reg.t0);
    Insn (Riscv.Insn.make Op.FENCE_I);
    J "loop" (* re-enter through the (now stale) chain *);
    Label "after";
    Insn (Build.addi Reg.a0 Reg.a0 1);
  ]
  @ exit_with_a0

let test_selfmod_chained_blocks () =
  (* default engine: the superblock cache *)
  let stop, _, _ = run_items selfmod_chain_items in
  Alcotest.(check int) "patched chain result (block engine)" 21 (exit_code stop);
  (* and the interpreter agrees *)
  let p, _ = build_process selfmod_chain_items in
  p.Loader.machine.Machine.engine <- Machine.Eng_interp;
  let stop, _ = Loader.run p in
  Alcotest.(check int) "patched chain result (interpreter)" 21 (exit_code stop)

let test_engine_limit_parity () =
  (* a step budget that expires mid-block must stop both engines at the
     same pc with identical retired-instruction and cycle counts *)
  let open Asm in
  let items =
    [
      Insn (Build.addi Reg.a0 Reg.zero 0);
      Insn (Build.addi Reg.a0 Reg.a0 1);
      Insn (Build.addi Reg.a0 Reg.a0 2);
      Insn (Build.addi Reg.a0 Reg.a0 3);
      Insn (Build.addi Reg.a0 Reg.a0 4);
      Insn (Build.addi Reg.a0 Reg.a0 5);
    ]
    @ exit_with_a0
  in
  let observe engine max_steps =
    let p, _ = build_process items in
    let m = p.Loader.machine in
    m.Machine.engine <- engine;
    let stop = Machine.run ~max_steps m in
    (stop, m.Machine.pc, m.Machine.instret, m.Machine.cycles, m.Machine.regs.(10))
  in
  for budget = 1 to 8 do
    let s1, pc1, i1, c1, a1 = observe Machine.Eng_interp budget in
    let s2, pc2, i2, c2, a2 = observe Machine.Eng_block budget in
    Alcotest.(check bool)
      (Printf.sprintf "stop parity at budget %d" budget)
      true (s1 = s2);
    check64 "pc parity" pc1 pc2;
    check64 "instret parity" i1 i2;
    check64 "cycle parity" c1 c2;
    check64 "a0 parity" a1 a2
  done

(* a registry counter's current value; tests read deltas across a run *)
let counter name = Dyn_obs.Registry.(counter_value (counter name))

let test_flush_counts_one () =
  (* the flush count lives in one registry row: each flush_icache
     advances it by exactly one, on any machine *)
  let m = Machine.create () in
  ignore (Machine.add_code_region m ~base:0x4000L ~size:0x100);
  let before = counter "sim.icache.flushes" in
  Machine.flush_icache m;
  Alcotest.(check int) "one flush" (before + 1) (counter "sim.icache.flushes");
  Machine.flush_icache (Machine.create ());
  Alcotest.(check int) "one more" (before + 2) (counter "sim.icache.flushes")

let test_timer_midblock_parity () =
  (* a timer whose deadline falls inside translated blocks: the block
     engine must roll back to precise stepping across each firing, so
     firing cycles, final state and retire counts all match the
     interpreter exactly *)
  let open Asm in
  let items =
    [
      Insn (Build.addi Reg.a0 Reg.zero 0);
      Insn (Build.addi Reg.t0 Reg.zero 1);
      Label "loop";
      Insn (Build.add Reg.a0 Reg.a0 Reg.t0);
      Insn (Build.addi Reg.t0 Reg.t0 1);
      Insn (Build.slti Reg.t1 Reg.t0 51);
      Br (Op.BNE, Reg.t1, Reg.zero, "loop");
    ]
    @ exit_with_a0
  in
  let observe engine =
    let p, _ = build_process items in
    let m = p.Loader.machine in
    m.Machine.engine <- engine;
    let fires = ref [] in
    Machine.set_timer m ~period:37L (fun m ->
        fires := m.Machine.cycles :: !fires);
    let stop, _ = Loader.run p in
    (exit_code stop, List.rev !fires, m.Machine.cycles, m.Machine.instret)
  in
  let steps0 = counter "sim.bb.timer_steps" in
  let c2, f2, cy2, i2 = observe Machine.Eng_block in
  let c1, f1, cy1, i1 = observe Machine.Eng_interp in
  Alcotest.(check int) "exit parity" c1 c2;
  Alcotest.(check (list int64)) "firing cycles parity" f1 f2;
  check64 "cycle parity" cy1 cy2;
  check64 "instret parity" i1 i2;
  Alcotest.(check bool) "timer actually fired mid-run" true (List.length f1 > 2);
  Alcotest.(check bool)
    "block engine rolled back to precise steps" true
    (counter "sim.bb.timer_steps" > steps0)

let test_hpm_toggle_retranslates () =
  (* the code cache is keyed on the observability configuration:
     toggling an HPM selector between runs over the same (still cached)
     code must retranslate the affected blocks in place — no stale
     counts, no global flush — and agree with the interpreter *)
  let open Asm in
  let items =
    [
      Insn (Build.addi Reg.t0 Reg.zero 0);
      Label "loop";
      Insn (Build.addi Reg.t0 Reg.t0 1);
      Insn (Build.slti Reg.t1 Reg.t0 20);
      Br (Op.BNE, Reg.t1, Reg.zero, "loop");
      Insn Build.ebreak;
    ]
  in
  let r = Asm.assemble ~base:text_base items in
  let phases engine =
    let m = Machine.create () in
    ignore
      (Machine.add_code_region m ~base:text_base
         ~size:(Bytes.length r.Asm.code));
    Mem.write_bytes m.Machine.mem text_base r.Asm.code;
    m.Machine.engine <- engine;
    let run_phase () =
      m.Machine.pc <- text_base;
      m.Machine.regs.(5) <- 0L;
      match Machine.run m with
      | Machine.Ebreak _ -> ()
      | s -> Alcotest.failf "expected ebreak, got %a" Machine.pp_stop s
    in
    run_phase () (* phase 1: selectors off *);
    let h0 = Array.copy m.Machine.hpm in
    Machine.csr_write m 0x323 1L (* mhpmevent3 <- branch *);
    run_phase () (* phase 2: branch counting, over cached code *);
    let h1 = Array.copy m.Machine.hpm in
    Machine.csr_write m 0x323 0L;
    run_phase () (* phase 3: off again — counter must freeze *);
    let h2 = Array.copy m.Machine.hpm in
    (h0, h1, h2)
  in
  let retrans0 = counter "sim.bb.retranslated"
  and flushes0 = counter "sim.icache.flushes" in
  let b0, b1, b2 = phases Machine.Eng_block in
  let retrans = counter "sim.bb.retranslated" - retrans0 in
  let flushes = counter "sim.icache.flushes" - flushes0 in
  let a0, a1, a2 = phases Machine.Eng_interp in
  List.iter2
    (fun (name, a) b ->
      Alcotest.(check (array int64)) (name ^ " hpm parity") a b)
    [ ("phase-1", a0); ("phase-2", a1); ("phase-3", a2) ]
    [ b0; b1; b2 ];
  Alcotest.(check bool) "phase 2 counted branches" true (b1.(0) > b0.(0));
  Alcotest.(check int64) "phase 3 froze the counter" b1.(0) b2.(0);
  Alcotest.(check bool) "blocks were retranslated in place" true (retrans > 0);
  Alcotest.(check int) "no global flush involved" 0 flushes

let test_traced_selfmod_fence_i () =
  (* FENCE.I inside a traced block: the fused translations are
     invalidated by the flush and rebuilt with the hook still bound, so
     the patched code executes and the hook sees every instruction *)
  let observe engine =
    let p, _ = build_process selfmod_chain_items in
    let m = p.Loader.machine in
    m.Machine.engine <- engine;
    let count = ref 0 in
    m.Machine.trace <- Some (fun _ _ -> incr count);
    let stop, _ = Loader.run p in
    (exit_code stop, !count)
  in
  let blocks0 = counter "sim.bb.blocks" in
  let c2, n2 = observe Machine.Eng_block in
  Alcotest.(check bool)
    "fast path actually ran blocks" true
    (counter "sim.bb.blocks" > blocks0);
  let c1, n1 = observe Machine.Eng_interp in
  Alcotest.(check int) "patched result (block engine)" 21 c2;
  Alcotest.(check int) "patched result (interpreter)" 21 c1;
  Alcotest.(check int) "trace hook call parity" n1 n2

let () =
  Alcotest.run "sim"
    [
      ( "integer",
        [
          Alcotest.test_case "arith loop" `Quick test_arith_loop;
          Alcotest.test_case "function call" `Quick test_function_call;
          Alcotest.test_case "memory + data section" `Quick test_memory_and_data;
          Alcotest.test_case "mulh/div edge cases" `Quick test_mulh_div;
          Alcotest.test_case "amo + lr/sc" `Quick test_amo_and_lrsc;
          Alcotest.test_case "compressed execution" `Quick test_compressed_execution;
          Alcotest.test_case "Zbb/Zba execution" `Quick test_zbb_extension;
          Alcotest.test_case "rev8 and orc.b" `Quick test_rev8_orcb;
        ] );
      ( "float",
        [
          Alcotest.test_case "double arithmetic" `Quick test_double_arithmetic;
          Alcotest.test_case "fcvt truncation" `Quick test_fcvt_and_fclass;
        ] );
      ( "os",
        [
          Alcotest.test_case "write syscall" `Quick test_write_syscall;
          Alcotest.test_case "clock_gettime" `Quick test_clock_gettime_advances;
        ] );
      ( "csr",
        [
          Alcotest.test_case "illegal csr faults" `Quick test_illegal_csr_faults;
          Alcotest.test_case "invalid selector faults" `Quick
            test_invalid_selector_faults;
          Alcotest.test_case "mscratch roundtrip" `Quick test_mscratch_roundtrip;
          Alcotest.test_case "counter writes ignored" `Quick
            test_counter_writes_ignored;
          Alcotest.test_case "hpm event counting" `Quick test_hpm_event_counting;
          Alcotest.test_case "timer deterministic" `Quick test_timer_deterministic;
          Alcotest.test_case "timer clear" `Quick test_timer_clear;
        ] );
      ( "control",
        [
          Alcotest.test_case "ebreak stop" `Quick test_ebreak_stops;
          Alcotest.test_case "fault on garbage" `Quick test_fault_on_garbage;
          Alcotest.test_case "step limit" `Quick test_step_limit;
          Alcotest.test_case "fence.i flushes icache" `Quick test_fence_i_flushes;
          Alcotest.test_case "cycle accounting" `Quick test_cycle_accounting;
        ] );
      ( "memory",
        [
          Alcotest.test_case "bulk bytes roundtrip" `Quick test_mem_bulk_roundtrip;
          Alcotest.test_case "read_string across pages" `Quick
            test_mem_read_string_pages;
          Alcotest.test_case "find_region many regions" `Quick
            test_find_region_many;
        ] );
      ( "engine",
        [
          Alcotest.test_case "self-modification through a chain" `Quick
            test_selfmod_chained_blocks;
          Alcotest.test_case "step-budget parity" `Quick test_engine_limit_parity;
          Alcotest.test_case "flush_icache counts one flush" `Quick
            test_flush_counts_one;
          Alcotest.test_case "timer mid-block parity" `Quick
            test_timer_midblock_parity;
          Alcotest.test_case "hpm toggle retranslates" `Quick
            test_hpm_toggle_retranslates;
          Alcotest.test_case "traced self-modification + fence.i" `Quick
            test_traced_selfmod_fence_i;
        ] );
    ]
