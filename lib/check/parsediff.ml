(* The parallel-parser differential: ParseAPI's domain-parallel engine
   against the frozen sequential reference parser.

   The parallel parser's whole contract is CFG identity: for any domain
   count the merged CFG must be a pure function of the image — same
   functions, same block boundaries, same edges, same jump tables.
   This harness parses the same image at 1/2/4/8 domains and diffs the
   CFGs structurally with Cfg_diff, against one of two oracles:

     - minicc builtins (real calls, switches over jump tables, FP
       matmul): the frozen sequential reference parser.  On structured
       code the engine must reproduce the old algorithm bit for bit.
     - seeded adversarial instruction streams from the lockstep fuzzer
       laid back to back — decodable but hostile: branches into the
       middle of other instructions, jalr with arbitrary targets,
       interleaved compressed and uncompressed encodings, function
       symbols at prng-chosen instruction boundaries: the engine's own
       domains=1 parse.  Functions here share blocks, and the
       sequential parser's per-function attributes on shared blocks are
       first-parser-wins (when it does not abort outright), so the
       meaningful gate is schedule independence of the engine itself.

   The fuzz streams exercise exactly the merge paths structured
   compiler output never hits: block splits at addresses discovered by
   a later round, overlapping decode streams, terminators cut off
   mid-block. *)

open Parse_api

type result = {
  p_name : string;
  p_domains : int;
  p_funcs : int; (* reference-parse function count, for the report *)
  p_blocks : int; (* reference-parse block count *)
  p_diffs : string list; (* structural differences; empty = identical *)
}

type summary = { s_checked : int; s_diverged : int; s_failures : result list }

(* 1 exercises the sequential fast path of the engine; 2/4/8 the
   work-stealing fan-out.  [~oversubscribe:true] bypasses the engine's
   clamp to the hardware core count: oversubscription on small machines
   is exactly the contended scheduling regime a determinism harness
   wants, even though the production policy avoids it for speed. *)
let domain_counts = [ 1; 2; 4; 8 ]

let against name st (oracle : Cfg.t) oracle_name ds : result list =
  let funcs = List.length (Cfg.functions oracle) in
  let blocks = Cfg.n_blocks oracle in
  List.map
    (fun d ->
      match Parser.parse ~domains:d ~oversubscribe:true st with
      | cfg ->
          {
            p_name = name;
            p_domains = d;
            p_funcs = funcs;
            p_blocks = blocks;
            p_diffs = Cfg_diff.diff oracle cfg;
          }
      | exception e ->
          {
            p_name = name;
            p_domains = d;
            p_funcs = funcs;
            p_blocks = blocks;
            p_diffs =
              [
                Printf.sprintf "domains=%d raised %s where %s succeeded" d
                  (Printexc.to_string e) oracle_name;
              ];
          })
    ds

(* Structured (compiler-emitted) code: the frozen sequential parser is
   the oracle and every domain count must reproduce its CFG exactly. *)
let check_against_reference name (st : Symtab.t) : result list =
  against name st (Refparser.parse st) "the sequential reference" domain_counts

(* Hostile code: functions can share blocks, and the sequential
   parser's per-function attributes on shared blocks (membership of
   split tails, callee sets, the returns flag) depend on which function
   historically parsed the block first — the very history-dependence
   the round-based engine removes.  (It can even abort outright on
   branches into instruction middles.)  So the adversarial oracle is
   the engine's own single-domain parse: 2/4/8 domains must reproduce
   the domains=1 outcome exactly — the same CFG, or the same
   rejection. *)
let check_self_consistent name (st : Symtab.t) : result list =
  match Parser.parse ~domains:1 ~oversubscribe:true st with
  | base ->
      {
        p_name = name;
        p_domains = 1;
        p_funcs = List.length (Cfg.functions base);
        p_blocks = Cfg.n_blocks base;
        p_diffs = [];
      }
      :: against name st base "domains=1"
           (List.filter (fun d -> d <> 1) domain_counts)
  | exception _ ->
      List.map
        (fun d ->
          match Parser.parse ~domains:d ~oversubscribe:true st with
          | _ ->
              {
                p_name = name;
                p_domains = d;
                p_funcs = 0;
                p_blocks = 0;
                p_diffs =
                  [
                    Printf.sprintf
                      "domains=%d succeeded where domains=1 rejected the input"
                      d;
                  ];
              }
          | exception _ ->
              {
                p_name = name;
                p_domains = d;
                p_funcs = 0;
                p_blocks = 0;
                p_diffs = [];
              })
        domain_counts

let check_builtin name : result list =
  let src =
    match List.assoc_opt name Minicc.Programs.builtins with
    | Some src -> Lazy.force src
    | None -> invalid_arg ("Parsediff.check_builtin: unknown mutatee " ^ name)
  in
  let compiled = Minicc.Driver.compile src in
  check_against_reference name (Symtab.of_image compiled.Minicc.Driver.image)

(* A seeded adversarial mutatee: the fuzzer's decodable instruction
   stream — control flow included — packed into one executable .text
   section, with the ELF entry at its base and a handful of function
   symbols at prng-chosen instruction boundaries (symbols inside
   instructions are outside the parser contract: the sequential
   baseline itself rejects the overlapping decode stream).  Gap parsing
   stays on, so the speculative scan and the indirect-refinement rounds
   run over the hostile bytes too. *)
let fuzz_base = 0x10000L

let fuzz_symtab ~seed ~len : Symtab.t =
  let buf = Buffer.create (len * 4) in
  let boundaries = ref [] in
  for index = 0 to len - 1 do
    boundaries := Buffer.length buf :: !boundaries;
    Buffer.add_bytes buf (Fuzz.case_of ~seed ~index).Fuzz.c_bytes
  done;
  boundaries := Buffer.length buf :: !boundaries;
  Buffer.add_bytes buf (Riscv.Encode.encode Riscv.Build.ret);
  let code = Buffer.to_bytes buf in
  let boundaries = Array.of_list (List.rev !boundaries) in
  let g = Prng.of_seed_index ~seed ~index:(-2) in
  let nsyms = 2 + Prng.int g 3 in
  let symbols =
    List.init nsyms (fun k ->
        let off = boundaries.(Prng.int g (Array.length boundaries)) in
        Elfkit.Types.symbol
          (Printf.sprintf "f%d" k)
          (Int64.add fuzz_base (Int64.of_int off))
          ~sym_section:".text")
  in
  let sections =
    [
      Elfkit.Types.section ".text" code ~s_addr:fuzz_base
        ~s_flags:Elfkit.Types.(shf_alloc lor shf_execinstr)
        ~s_addralign:4;
    ]
  in
  Symtab.of_image (Elfkit.Types.image ~entry:fuzz_base ~symbols sections)

let check_fuzz ?(len = 96) ~seed () : result list =
  check_self_consistent (Printf.sprintf "fuzz-%Ld" seed) (fuzz_symtab ~seed ~len)

let sweep ?(mutatees = List.map fst Minicc.Programs.builtins) ?(seeds = 10) ?(len = 96)
    ?(base_seed = 4000) () : summary =
  let results =
    List.concat_map check_builtin mutatees
    @ List.concat_map
        (fun k -> check_fuzz ~len ~seed:(Int64.of_int (base_seed + k)) ())
        (List.init seeds Fun.id)
  in
  let failures = List.filter (fun r -> r.p_diffs <> []) results in
  {
    s_checked = List.length results;
    s_diverged = List.length failures;
    s_failures = failures;
  }

let pp_result fmt (r : result) =
  if r.p_diffs = [] then
    Format.fprintf fmt "%-12s domains=%d identical (%d funcs, %d blocks)@."
      r.p_name r.p_domains r.p_funcs r.p_blocks
  else begin
    Format.fprintf fmt "%-12s domains=%d DIFFERS (%d differences)@." r.p_name
      r.p_domains (List.length r.p_diffs);
    List.iter (fun d -> Format.fprintf fmt "  %s@." d) r.p_diffs
  end

let pp_summary fmt (s : summary) =
  if s.s_diverged = 0 then
    Format.fprintf fmt "parse differential: %d parses, zero CFG differences@."
      s.s_checked
  else begin
    Format.fprintf fmt "parse differential: %d of %d parses DIFFER@."
      s.s_diverged s.s_checked;
    List.iter (pp_result fmt) s.s_failures
  end
