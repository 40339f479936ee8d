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
   mid-block.  A case id is `parse:MUTATEE:DOMAINS`, where MUTATEE is a
   builtin or `fuzz-SEED/LEN`. *)

open Parse_api

(* 1 exercises the sequential fast path of the engine; 2/4/8 the
   work-stealing fan-out.  [~oversubscribe:true] bypasses the engine's
   clamp to the hardware core count: oversubscription on small machines
   is exactly the contended scheduling regime a determinism harness
   wants, even though the production policy avoids it for speed. *)
let domain_counts = [ 1; 2; 4; 8 ]

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

(* Structured (compiler-emitted) code: the frozen sequential parser is
   the oracle and every domain count must reproduce its CFG exactly.

   Hostile code: functions can share blocks, and the sequential
   parser's per-function attributes on shared blocks (membership of
   split tails, callee sets, the returns flag) depend on which function
   historically parsed the block first — the very history-dependence
   the round-based engine removes.  (It can even abort outright on
   branches into instruction middles.)  So the adversarial oracle is
   the engine's own single-domain parse. *)
let check name d : Diffkit.outcome =
  if d < 1 then raise Diffkit.Bad_case;
  let oracle_name, st, oracle =
    match Diffkit.fuzz_of_name name with
    | Some (seed, len) ->
        let st = fuzz_symtab ~seed ~len in
        ("domains=1", st, fun () -> Parser.parse ~domains:1 ~oversubscribe:true st)
    | None ->
        let st = Symtab.of_image (Diffkit.builtin name) in
        ("the sequential reference", st, fun () -> Refparser.parse st)
  in
  let attempt f = match f () with cfg -> Ok cfg | exception e -> Error e in
  let oracle = attempt oracle in
  (* the same CFG, or the same rejection *)
  let diffs =
    let cfg = attempt (fun () -> Parser.parse ~domains:d ~oversubscribe:true st) in
    match (oracle, cfg) with
    | Ok a, Ok b -> Cfg_diff.diff a b
    | Error _, Error _ -> []
    | Ok _, Error e ->
        [
          Printf.sprintf "domains=%d raised %s where %s succeeded" d
            (Printexc.to_string e) oracle_name;
        ]
    | Error _, Ok _ ->
        [
          Printf.sprintf "domains=%d succeeded where %s rejected the input" d
            oracle_name;
        ]
  in
  let notes =
    match oracle with
    | Ok cfg ->
        let funcs = List.length (Cfg.functions cfg) in
        [ Printf.sprintf "%d funcs, %d blocks" funcs (Cfg.n_blocks cfg) ]
    | Error _ -> [ oracle_name ^ " rejects the input" ]
  in
  { Diffkit.diffs; notes; tags = [] }

let cases ~mutatees ~seeds =
  List.concat_map
    (fun m -> List.map (Printf.sprintf "parse:%s:%d" m) domain_counts)
    (mutatees @ List.init seeds (fun k -> Diffkit.fuzz_name ~seed:(4000 + k) ~len:96))

let leg =
  {
    Diffkit.name = "parse";
    run =
      (fun ~verbose:_ -> function
        | [ name; d ] -> check name (Diffkit.int d) | _ -> raise Diffkit.Bad_case);
  }
