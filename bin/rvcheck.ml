(* rvcheck: the differential correctness harness as a tool.

   Every differential leg is a Diffkit instance: its cases are string
   ids that encode every parameter, a sweep prints one summary, and each
   divergence ends in a `reproduce: rvcheck replay <id>` line.

     rvcheck lockstep --seed 1 --count 10000       (ids lockstep:SEED:INDEX)
         fuzz decodable-but-adversarial RV64GC instructions and diff the
         rvsim interpreter against the mini-SAIL semantics after every
         step
     rvcheck engine --seeds 50                     (ids engine:MUTATEE:OBS)
         run the same mutatees under the per-instruction interpreter and
         the superblock engine and diff final registers, memory, cycles,
         instret, HPM counters and timer firing points
     rvcheck parsediff --seeds 20                  (ids parse:MUTATEE:DOMAINS)
         parse the same mutatees with the domain-parallel engine at
         1/2/4/8 domains and diff the CFGs structurally: minicc builtins
         against the frozen sequential reference parser, seeded
         adversarial instruction streams against the engine's own
         single-domain parse — any difference is a determinism bug
     rvcheck roundtrip [--mutatee all|fib|...]     (ids roundtrip:MUTATEE)
         instrument a mutatee with an effect-free probe, rewrite, and
         compare the visible state of original vs rewritten runs
     rvcheck snippet --seed 1 --count 500          (ids snippet:SEED)
         generate random snippets (every constructor, counters and
         trace records), lower them with CodeGenAPI, run the code on
         rvsim and diff it against a reference evaluation of the AST
     rvcheck replay CASE
         re-run exactly one case of any leg, verbosely
     rvcheck decoder
         exhaustive 16-bit sweep of the RVC decoder (reserved encodings,
         expansion and re-compression round trips)
     rvcheck smoke
         the bounded fixed-seed sweep `make fuzz-smoke` runs in CI

   Bad arguments (unknown mutatee or case id, a count below its floor)
   exit 2. *)

open Cmdliner
open Check_api

let pr fmt = Format.printf fmt
let legs = [ Oracle.leg; Enginediff.leg; Parsediff.leg; Roundtrip.leg; Snippetdiff.leg ]

let usage_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("rvcheck: " ^ msg);
      exit 2)
    fmt

let at_least floor opt n =
  if n < floor then usage_error "--%s must be at least %d, got %d" opt floor n

(* [] or [all] selects every built-in mutatee; an unknown name exits 2. *)
let resolve_mutatees mutatees =
  let all = List.map fst Minicc.Programs.builtins in
  let names = match mutatees with [] | [ "all" ] -> all | ms -> ms in
  let bad = List.filter (fun n -> not (List.mem n all)) names in
  if bad <> [] then
    usage_error "unknown mutatee(s) %s (expected %s)" (String.concat ", " bad)
      (String.concat ", " all);
  names

(* The one path every leg runs through: sweep, summary, exit status.
   Verbose prints each case that has notes, and per-value tag counts. *)
let run_leg ?(verbose = false) leg ids =
  let log = if verbose then Some Format.std_formatter else None in
  let s = Diffkit.sweep ?log leg ids in
  pr "%a" (Diffkit.pp_summary ~verbose) s;
  if s.Diffkit.failed = 0 then 0 else 1

let run_lockstep seed count verbose =
  at_least 1 "count" count;
  run_leg ~verbose Oracle.leg (Oracle.cases ~seed ~count)

let run_engine mutatees seeds len verbose =
  at_least 0 "seeds" seeds;
  at_least 1 "len" len;
  let mutatees = resolve_mutatees mutatees in
  run_leg ~verbose Enginediff.leg (Enginediff.cases ~mutatees ~seeds ~len ())

let run_parsediff mutatees seeds verbose =
  at_least 0 "seeds" seeds;
  let mutatees = resolve_mutatees mutatees in
  run_leg ~verbose Parsediff.leg (Parsediff.cases ~mutatees ~seeds)

let run_roundtrip mutatees =
  run_leg ~verbose:true Roundtrip.leg (Roundtrip.cases (resolve_mutatees mutatees))

let run_snippet seed count verbose =
  at_least 1 "count" count;
  run_leg ~verbose Snippetdiff.leg (Snippetdiff.cases ~seed ~count)

let run_replay id =
  match Diffkit.replay legs id with
  | o ->
      Diffkit.pp_case Format.std_formatter id o;
      if o.Diffkit.diffs = [] then 0 else 1
  | exception Diffkit.Bad_case ->
      usage_error
        "unknown case id %S (expected e.g. lockstep:1:77, engine:fib:timer, \
         parse:fuzz-4002/96:4, roundtrip:fib, snippet:7)"
        id

let run_decoder () =
  let accepted, violations = Decode_check.sweep () in
  pr "decoder sweep: %d of 49152 halfwords decode@." accepted;
  List.iter
    (fun (v : Decode_check.violation) ->
      pr "  0x%04x: %s@." v.Decode_check.v_word v.Decode_check.v_msg)
    violations;
  if violations = [] then begin
    pr "  reserved encodings rejected, expansions and re-compressions closed@.";
    0
  end
  else 1

(* The CI profile: fixed seed, bounded, sub-second; covers every leg
   so `make fuzz-smoke` exercises everything — including the
   parallel-parser CFG-identity gate. *)
let run_smoke () =
  let rc1 = run_lockstep 1L 4000 false in
  let rc2 = run_decoder () in
  let rc3 = run_roundtrip [ "fib"; "calls" ] in
  let rc4 = run_engine [ "fib"; "calls" ] 10 40 false in
  let rc5 = run_parsediff [ "all" ] 5 false in
  let rc6 = run_snippet 1L 500 false in
  if rc1 + rc2 + rc3 + rc4 + rc5 + rc6 = 0 then begin
    pr "fuzz-smoke: ok@.";
    0
  end
  else 1

let seed_arg =
  Arg.(
    value & opt int64 1L
    & info [ "seed" ] ~docv:"N" ~doc:"PRNG seed for the instruction stream")

let count_arg =
  Arg.(
    value & opt int 10000
    & info [ "count" ] ~docv:"K" ~doc:"number of fuzzed instructions")

let case_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"CASE" ~doc:"a case id as a leg prints it, e.g. lockstep:1:77")

let verbose_arg =
  Arg.(
    value & flag
    & info [ "v"; "verbose" ]
        ~doc:
          "print every case that has notes, and per-value tag counts \
           (lockstep: the opcodes)")

let mutatee_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "mutatee" ] ~docv:"M,.."
        ~doc:
          "built-in mutatees for the roundtrip, engine and parsediff legs \
           (default: all)")

let lockstep_cmd =
  Cmd.v
    (Cmd.info "lockstep" ~doc:"fuzzed rvsim vs Sail-IR differential sweep")
    Term.(const run_lockstep $ seed_arg $ count_arg $ verbose_arg)

let replay_cmd =
  Cmd.v
    (Cmd.info "replay" ~doc:"re-run one case of any leg verbosely")
    Term.(const run_replay $ case_arg)

let decoder_cmd =
  Cmd.v
    (Cmd.info "decoder" ~doc:"exhaustive RVC decoder audit")
    Term.(const run_decoder $ const ())

let roundtrip_cmd =
  Cmd.v
    (Cmd.info "roundtrip" ~doc:"rewrite round-trip transparency check")
    Term.(const run_roundtrip $ mutatee_arg)

let seeds_arg =
  Arg.(
    value & opt int 25
    & info [ "seeds" ] ~docv:"N" ~doc:"seeded straight-line programs to diff")

let len_arg =
  Arg.(
    value & opt int 40
    & info [ "len" ] ~docv:"K" ~doc:"instructions per straight-line program")

let engine_cmd =
  Cmd.v
    (Cmd.info "engine" ~doc:"superblock engine vs interpreter differential")
    Term.(const run_engine $ mutatee_arg $ seeds_arg $ len_arg $ verbose_arg)

let parsediff_seeds_arg =
  Arg.(
    value & opt int 20
    & info [ "seeds" ] ~docv:"N" ~doc:"seeded adversarial mutatees to parse")

let parsediff_cmd =
  Cmd.v
    (Cmd.info "parsediff"
       ~doc:"parallel parser vs sequential reference CFG differential")
    Term.(const run_parsediff $ mutatee_arg $ parsediff_seeds_arg $ verbose_arg)

let snippet_count_arg =
  Arg.(value & opt int 500 & info [ "count" ] ~docv:"K" ~doc:"number of random snippets")

let snippet_seed_arg =
  Arg.(value & opt int64 1L & info [ "seed" ] ~docv:"N" ~doc:"seed of the first snippet")

let snippet_cmd =
  Cmd.v
    (Cmd.info "snippet" ~doc:"CodeGenAPI vs reference snippet evaluation differential")
    Term.(const run_snippet $ snippet_seed_arg $ snippet_count_arg $ verbose_arg)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke" ~doc:"bounded fixed-seed sweep for CI")
    Term.(const run_smoke $ const ())

let cmd =
  Cmd.group
    (Cmd.info "rvcheck"
       ~doc:
         "differential correctness harness: lockstep, engine, parse, \
          round-trip and snippet legs, one replay")
    [
      lockstep_cmd;
      replay_cmd;
      decoder_cmd;
      roundtrip_cmd;
      engine_cmd;
      parsediff_cmd;
      snippet_cmd;
      smoke_cmd;
    ]

let () = exit (Cmd.eval' cmd)
