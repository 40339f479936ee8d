(* Lint tests: the binary linter's hazard rules on known-good and
   known-bad fixtures, and rewrite verification end to end — a clean
   rewrite must verify with zero errors, and each seeded defect class
   must be flagged: a mid-instruction springboard, a clobbered live
   register, a dangling jump-table entry, a jump-table entry into a
   patched-out block and an unmapped trap springboard by their
   structural rules,
   an unbalanced trampoline stack and a stray register write in the
   relocated code by the symbolic tier of [Check.verify_rewrite].
   Every rule a seeded defect reports must be in the rule catalog. *)

open Riscv
open Parse_api
open Codegen_api
open Patch_api
open Lint_api

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

let text_base = 0x10000L
let data_base = 0x20000L

let build_symtab ?(data = Bytes.empty) ?(funcs = []) items =
  let r =
    Asm.assemble ~base:text_base
      ~symbols:(function "DATA" -> Some data_base | _ -> None)
      items
  in
  let symbols =
    List.map
      (fun (name, label) ->
        Elfkit.Types.symbol name (Asm.label_addr r label) ~sym_section:".text")
      funcs
  in
  let attrs =
    Elfkit.Attributes.section_of
      { Elfkit.Attributes.empty with arch = Some "rv64imafdc_zicsr_zifencei" }
  in
  let sections =
    [
      Elfkit.Types.section ".text" r.Asm.code ~s_addr:text_base
        ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr) ~s_addralign:4;
      attrs;
    ]
    @
    if Bytes.length data = 0 then []
    else
      [
        Elfkit.Types.section ".rodata" data ~s_addr:data_base
          ~s_flags:Elfkit.Types.shf_alloc ~s_addralign:8;
      ]
  in
  let img =
    Elfkit.Types.image ~entry:text_base ~symbols
      ~e_flags:Elfkit.Types.(ef_riscv_rvc lor ef_riscv_float_abi_double)
      sections
  in
  (Symtab.of_image img, r)

let find_func cfg name =
  List.find (fun f -> f.Cfg.f_name = name) (Cfg.functions cfg)

let has_rule ds rule = List.exists (fun d -> d.Diag.d_rule = rule) ds
let errors_of ds rule =
  List.filter (fun d -> d.Diag.d_rule = rule) (Diag.errors ds)

(* the one rewrite verifier, as `rvlint verify` runs it; what
   `rvlint rules` lists must cover every rule it reports *)
let verify_rewrite st cfg m img =
  let ds, _ =
    Verify_api.Check.verify_rewrite ~orig:st cfg ~manifest:m ~rewritten:img
  in
  List.iter
    (fun d ->
      checkb
        (Printf.sprintf "rule %s is in the catalog" d.Diag.d_rule)
        true
        (Rules.find d.Diag.d_rule <> None))
    ds;
  ds

let symbolic_error_at ds addr =
  List.exists
    (fun d -> Int64.equal d.Diag.d_addr addr)
    (errors_of ds "symbolic-inequivalence")

(* overwrite bytes in a (rewritten) image in place — symtab regions alias
   the section buffers, so this is how the tests seed defects *)
let poke img addr bytes =
  let st = Symtab.of_image img in
  match Symtab.region_at st addr with
  | Some r ->
      Bytes.blit bytes 0 r.Symtab.rg_data
        (Int64.to_int (Int64.sub addr r.Symtab.rg_addr))
        (Bytes.length bytes)
  | None -> Alcotest.failf "poke: no region at 0x%Lx" addr

(* --- linter fixtures ---------------------------------------------------- *)

(* the standard mutatee of test_patch: main loops 5 times over work *)
let mutatee =
  let open Asm in
  [
    Label "main";
    Insn (Build.addi Reg.s0 Reg.zero 5);
    Insn (Build.addi Reg.s1 Reg.zero 0);
    Label "loop";
    Insn (Build.mv Reg.a0 Reg.s1);
    Call_l "work";
    Insn (Build.mv Reg.s1 Reg.a0);
    Insn (Build.addi Reg.s0 Reg.s0 (-1));
    Br (Op.BNE, Reg.s0, Reg.zero, "loop");
    Insn (Build.mv Reg.a0 Reg.s1);
    J "exit_";
    Label "work";
    Br (Op.BEQ, Reg.a0, Reg.zero, "wz");
    Insn (Build.addi Reg.a0 Reg.a0 2);
    Insn Build.ret;
    Label "wz";
    Insn (Build.addi Reg.a0 Reg.a0 1);
    Insn Build.ret;
    Label "exit_";
    Insn (Build.addi Reg.a7 Reg.zero 93);
    Insn Build.ecall;
  ]

let parse_mutatee () =
  let st, r =
    build_symtab ~funcs:[ ("main", "main"); ("work", "work") ] mutatee
  in
  (st, Parser.parse st, r)

let test_lint_clean_mutatee () =
  let st, cfg, _ = parse_mutatee () in
  let ds = Linter.lint st cfg in
  checki "no errors on the standard mutatee" 0 (Diag.n_errors ds)

let test_lint_abi_clobber () =
  let open Asm in
  (* s2 written by a returning function that never saves it *)
  let st, _ =
    build_symtab ~funcs:[ ("main", "main") ]
      [
        Label "main";
        Insn (Build.addi (Reg.x 18) Reg.zero 5);
        Insn (Build.add Reg.a0 (Reg.x 18) (Reg.x 18));
        Insn Build.ret;
      ]
  in
  let ds = Linter.lint st (Parser.parse st) in
  checkb "abi-clobber reported" true (errors_of ds "abi-clobber" <> []);
  (* and saving it first silences the rule *)
  let st2, _ =
    build_symtab ~funcs:[ ("main", "main") ]
      [
        Label "main";
        Insn (Build.addi Reg.sp Reg.sp (-16));
        Insn (Build.sd (Reg.x 18) 8 Reg.sp);
        Insn (Build.addi (Reg.x 18) Reg.zero 5);
        Insn (Build.add Reg.a0 (Reg.x 18) (Reg.x 18));
        Insn (Build.ld (Reg.x 18) 8 Reg.sp);
        Insn (Build.addi Reg.sp Reg.sp 16);
        Insn Build.ret;
      ]
  in
  let ds2 = Linter.lint st2 (Parser.parse st2) in
  checkb "saved clobber accepted" false (has_rule ds2 "abi-clobber")

let test_lint_nonstandard_prologue () =
  let open Asm in
  (* a returning non-leaf that never saves ra: fast_walk cannot step it *)
  let st, _ =
    build_symtab
      ~funcs:[ ("main", "main"); ("leaf", "leaf") ]
      [
        Label "main";
        Call_l "leaf";
        Insn Build.ret;
        Label "leaf";
        Insn (Build.addi Reg.a0 Reg.a0 1);
        Insn Build.ret;
      ]
  in
  let ds = Linter.lint st (Parser.parse st) in
  checkb "nonstandard-prologue reported" true (has_rule ds "nonstandard-prologue")

let test_lint_unresolved_indirect () =
  let open Asm in
  (* jump target loaded from memory: the parser cannot resolve it *)
  let code =
    [
      Label "main";
      La (Reg.t0, "DATA");
      Insn (Build.ld Reg.t1 0 Reg.t0);
      Insn (Build.jr Reg.t1);
      Label "dest";
      Insn (Build.addi Reg.a7 Reg.zero 93);
      Insn Build.ecall;
    ]
  in
  let r0 = Asm.assemble ~base:text_base ~symbols:(function "DATA" -> Some data_base | _ -> None) code in
  let data = Bytes.create 8 in
  Bytes.set_int64_le data 0 (Asm.label_addr r0 "dest");
  let st, _ = build_symtab ~data ~funcs:[ ("main", "main") ] code in
  let ds = Linter.lint st (Parser.parse st) in
  checkb "unresolved-indirect warned" true (has_rule ds "unresolved-indirect");
  checkb "it is a warning, not an error" true
    (errors_of ds "unresolved-indirect" = [])

(* --- the verifier on a clean rewrite ------------------------------------- *)

let instrument_work () =
  let st, cfg, _ = parse_mutatee () in
  let rw = Rewriter.create st cfg in
  let c = Rewriter.allocate_var rw "c" 8 in
  let work = find_func cfg "work" in
  List.iter
    (fun pt -> Rewriter.insert rw pt [ Snippet.incr c ])
    (Point.block_entries cfg work);
  let img = Rewriter.rewrite rw in
  let m = Option.get (Rewriter.manifest rw) in
  (st, cfg, img, m, work)

let work_entry_entry cfg m (work : Cfg.func) =
  match Manifest.entry_for m work.Cfg.f_entry with
  | Some e -> e
  | None -> Alcotest.fail "no manifest entry for work's entry block"
  [@@warning "-27"]

let test_verify_clean () =
  let st, cfg, img, m, _ = instrument_work () in
  let ds = verify_rewrite st cfg m img in
  checki "clean rewrite verifies" 0 (Diag.n_errors ds);
  checkb "every site proved" false
    (List.exists
       (fun d -> String.starts_with ~prefix:"symbolic-" d.Diag.d_rule)
       ds)

(* --- seeded defect classes ----------------------------------------------- *)

(* 1. springboard re-pointed mid-instruction into the trampoline *)
let test_seed_mid_insn_springboard () =
  let st, cfg, img, m, work = instrument_work () in
  let e = work_entry_entry cfg m work in
  let off =
    Int64.to_int (Int64.sub (Int64.add e.Manifest.me_tramp 2L) e.Manifest.me_block)
  in
  poke img e.Manifest.me_block (Encode.encode (Build.jal Reg.zero off));
  let ds = verify_rewrite st cfg m img in
  checkb "springboard-target error" true (errors_of ds "springboard-target" <> [])

(* 2. manifest claims the snippet clobbered a register that is live *)
let test_seed_clobbered_live_reg () =
  let st, cfg, img, m, work = instrument_work () in
  let entry = work.Cfg.f_entry in
  let m' =
    {
      m with
      Manifest.m_entries =
        List.map
          (fun (e : Manifest.entry) ->
            if Int64.equal e.Manifest.me_block entry then
              {
                e with
                Manifest.me_insertions =
                  List.map
                    (fun i -> { i with Manifest.mi_clobbers = [ Reg.a0 ] })
                    e.Manifest.me_insertions;
              }
            else e)
          m.Manifest.m_entries;
    }
  in
  let ds = verify_rewrite st cfg m' img in
  (* a0 is work's argument, read by its first instruction *)
  checkb "clobber-live error" true (errors_of ds "clobber-live" <> [])

(* 3. a trampoline instruction replaced with unbalanced stack motion *)
let test_seed_stack_imbalance () =
  let st, cfg, img, m, work = instrument_work () in
  let e = work_entry_entry cfg m work in
  poke img e.Manifest.me_tramp
    (Encode.encode (Build.addi Reg.sp Reg.sp (-16)));
  let ds = verify_rewrite st cfg m img in
  checkb "sp disproved at the poked block" true
    (symbolic_error_at ds e.Manifest.me_block)

(* 4. relocated code writes a register nothing declared (s3) *)
let test_seed_bad_relocation () =
  let st, cfg, img, m, work = instrument_work () in
  let e = work_entry_entry cfg m work in
  poke img e.Manifest.me_tramp
    (Encode.encode (Build.addi (Reg.x 19) Reg.zero 1));
  let ds = verify_rewrite st cfg m img in
  checkb "s3 write disproved at the poked block" true
    (symbolic_error_at ds e.Manifest.me_block)

(* 5. an absolute jump-table slot corrupted to a mid-instruction address *)
let switch_code =
  let open Asm in
  [
    Label "main";
    Insn (Build.addi Reg.t0 Reg.zero 4);
    Br (Op.BGEU, Reg.a0, Reg.t0, "default");
    La (Reg.t1, "DATA");
    Insn (Build.slli Reg.t2 Reg.a0 3);
    Insn (Build.add Reg.t1 Reg.t1 Reg.t2);
    Insn (Build.ld Reg.t3 0 Reg.t1);
    Insn (Build.jr Reg.t3);
    Label "case0";
    Insn (Build.addi Reg.a1 Reg.zero 10);
    J "end";
    Label "case1";
    Insn (Build.addi Reg.a1 Reg.zero 11);
    J "end";
    Label "case2";
    Insn (Build.addi Reg.a1 Reg.zero 12);
    J "end";
    Label "case3";
    Insn (Build.addi Reg.a1 Reg.zero 13);
    J "end";
    Label "default";
    Insn (Build.addi Reg.a1 Reg.zero 99);
    Label "end";
    Insn Build.ret;
  ]

let instrument_switch () =
  let r0 =
    Asm.assemble ~base:text_base
      ~symbols:(function "DATA" -> Some data_base | _ -> None)
      switch_code
  in
  let table = Bytes.create 32 in
  List.iteri
    (fun k c -> Bytes.set_int64_le table (k * 8) (Asm.label_addr r0 c))
    [ "case0"; "case1"; "case2"; "case3" ];
  let st, _ = build_symtab ~data:table ~funcs:[ ("main", "main") ] switch_code in
  let cfg = Parser.parse st in
  let rw = Rewriter.create st cfg in
  let c = Rewriter.allocate_var rw "c" 8 in
  let main = find_func cfg "main" in
  Rewriter.insert rw (Option.get (Point.func_entry cfg main)) [ Snippet.incr c ];
  let img = Rewriter.rewrite rw in
  let m = Option.get (Rewriter.manifest rw) in
  (st, cfg, img, m, r0)

let test_jt_stats () =
  let _, cfg, _, _, _ = instrument_switch () in
  let main = find_func cfg "main" in
  let s = Cfg.jt_stats cfg main in
  checki "one dispatch site" 1 s.Cfg.jts_sites;
  checki "resolved" 1 s.Cfg.jts_resolved;
  checki "none unresolved" 0 s.Cfg.jts_unresolved;
  checki "none clamped" 0 s.Cfg.jts_clamped

let test_verify_jump_table_clean () =
  let st, cfg, img, m, _ = instrument_switch () in
  let ds = verify_rewrite st cfg m img in
  checki "intact table verifies" 0 (Diag.n_errors ds)

let test_seed_dangling_jump_table () =
  let st, cfg, img, m, r0 = instrument_switch () in
  (* slot 0 now points two bytes into case1: not an instruction boundary *)
  let bad = Bytes.create 8 in
  Bytes.set_int64_le bad 0 (Int64.add (Asm.label_addr r0 "case1") 2L);
  poke img data_base bad;
  let ds = verify_rewrite st cfg m img in
  checkb "dangling-jump-table error" true
    (errors_of ds "dangling-jump-table" <> [])

(* 6. an absolute jump-table slot re-pointed into a patched-out block *)
let test_seed_jump_table_into_patched () =
  let st, cfg, img, m, r0 = instrument_switch () in
  (* main's entry block [main, main+8) is now a springboard over zeros *)
  let main = Asm.label_addr r0 "main" in
  let bad = Bytes.create 8 in
  Bytes.set_int64_le bad 0 (Int64.add main 4L);
  poke img data_base bad;
  let ds = verify_rewrite st cfg m img in
  let want =
    Printf.sprintf "jump-table entry 0 -> 0x%Lx lands inside patched block 0x%Lx"
      (Int64.add main 4L) main
  in
  checkb "dangling-jump-table error names the patched block" true
    (List.exists (fun d -> d.Diag.d_msg = want) (errors_of ds "dangling-jump-table"))

(* 7. a trap springboard the trap map does not resolve *)
let test_seed_unmapped_trap () =
  let st, cfg, img, m, work = instrument_work () in
  let e = work_entry_entry cfg m work in
  poke img e.Manifest.me_block (Bytes.of_string "\x02\x90" (* c.ebreak *));
  let as_trap traps =
    {
      m with
      Manifest.m_traps = traps;
      m_entries =
        List.map
          (fun (x : Manifest.entry) ->
            if Int64.equal x.Manifest.me_block e.Manifest.me_block then
              { x with Manifest.me_strategy = "trap"; me_sb_len = 2 }
            else x)
          m.Manifest.m_entries;
    }
  in
  let unmapped traps =
    errors_of (Verifier.verify ~orig:st cfg ~manifest:(as_trap traps) ~rewritten:img)
      "trap-unmapped"
    <> []
  in
  checkb "trap-unmapped without a map entry" true (unmapped []);
  checkb "mapped trap accepted" false
    (unmapped [ (e.Manifest.me_block, e.Manifest.me_tramp) ]);
  checkb "a map entry to another trampoline does not count" true
    (unmapped [ (e.Manifest.me_block, Int64.add e.Manifest.me_tramp 4L) ])

(* a manifest whose trampoline size runs past the section: the
   boundary scan stops at the section's last byte *)
let test_verify_oversized_tramp () =
  let st, cfg, img, m, _ = instrument_work () in
  let ds =
    Verifier.verify ~orig:st cfg
      ~manifest:{ m with Manifest.m_tramp_size = max_int }
      ~rewritten:img
  in
  checki "same verdict as the true size" 0 (Diag.n_errors ds)

let () =
  Alcotest.run "lint"
    [
      ( "linter",
        [
          Alcotest.test_case "clean mutatee" `Quick test_lint_clean_mutatee;
          Alcotest.test_case "abi clobber" `Quick test_lint_abi_clobber;
          Alcotest.test_case "nonstandard prologue" `Quick
            test_lint_nonstandard_prologue;
          Alcotest.test_case "unresolved indirect" `Quick
            test_lint_unresolved_indirect;
        ] );
      ( "verifier",
        [
          Alcotest.test_case "clean rewrite" `Quick test_verify_clean;
          Alcotest.test_case "jump-table clean" `Quick
            test_verify_jump_table_clean;
          Alcotest.test_case "jt stats" `Quick test_jt_stats;
          Alcotest.test_case "oversized trampoline size" `Quick
            test_verify_oversized_tramp;
        ] );
      ( "seeded-defects",
        [
          Alcotest.test_case "mid-instruction springboard" `Quick
            test_seed_mid_insn_springboard;
          Alcotest.test_case "clobbered live register" `Quick
            test_seed_clobbered_live_reg;
          Alcotest.test_case "unbalanced trampoline stack" `Quick
            test_seed_stack_imbalance;
          Alcotest.test_case "bad relocation" `Quick test_seed_bad_relocation;
          Alcotest.test_case "dangling jump-table entry" `Quick
            test_seed_dangling_jump_table;
          Alcotest.test_case "jump-table entry into a patched block" `Quick
            test_seed_jump_table_into_patched;
          Alcotest.test_case "unmapped trap springboard" `Quick
            test_seed_unmapped_trap;
        ] );
    ]
