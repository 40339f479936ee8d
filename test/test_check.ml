(* rvcheck (the differential correctness harness) under test: every
   Diffkit leg (the lockstep oracle over fuzzed instruction streams, the
   block engine against the interpreter, the parallel parser against
   its oracles, the rewrite round-trip), the exhaustive
   compressed-decoder sweep, and Diffkit's own reporting and replay on
   a deliberately wrong leg.  These are the same entry points `rvcheck`
   and `make fuzz-smoke` drive; the suite pins the zero-divergence
   property into the tier-1 tests with smaller case counts. *)

open Check_api

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- the PRNG: replayability is the whole point ----------------------------- *)

let test_prng_determinism () =
  let a = Prng.of_seed_index ~seed:7L ~index:123 in
  let b = Prng.of_seed_index ~seed:7L ~index:123 in
  let xs = List.init 16 (fun _ -> Prng.next a) in
  let ys = List.init 16 (fun _ -> Prng.next b) in
  checkb "same seed+index, same stream" true (xs = ys);
  let c = Prng.of_seed_index ~seed:7L ~index:124 in
  checkb "adjacent index, different stream" true
    (List.init 16 (fun _ -> Prng.next c) <> xs);
  (* bounds respected *)
  let d = Prng.of_seed_index ~seed:99L ~index:0 in
  for _ = 1 to 1000 do
    let v = Prng.int d 17 in
    checkb "int in bounds" true (v >= 0 && v < 17)
  done

let test_fuzz_determinism () =
  (* a case is a pure function of (seed, index): generating it twice
     gives byte-identical programs and register files *)
  for index = 0 to 50 do
    let a = Fuzz.case_of ~seed:3L ~index in
    let b = Fuzz.case_of ~seed:3L ~index in
    checkb "case replays exactly" true
      (a.Fuzz.c_insn = b.Fuzz.c_insn
      && Bytes.equal a.Fuzz.c_bytes b.Fuzz.c_bytes
      && a.Fuzz.c_regs = b.Fuzz.c_regs
      && a.Fuzz.c_pc = b.Fuzz.c_pc)
  done

(* --- the lockstep oracle ----------------------------------------------------- *)

(* A clean sweep: every case ran, none diverged (the first failure's
   report is the error message). *)
let check_clean name ~cases (s : Diffkit.summary) =
  (match s.Diffkit.failures with
  | [] -> ()
  | _ -> Alcotest.failf "%a" (Diffkit.pp_summary ~verbose:false) s);
  checki (name ^ ": all cases ran") cases s.Diffkit.cases;
  checki (name ^ ": no divergences") 0 s.Diffkit.failed

let test_lockstep_sweep () =
  (* the tier-1 pin of the tentpole property: a few thousand fuzzed
     cases, zero divergences between rvsim and the Sail IR evaluator.
     `rvcheck lockstep` runs the same sweep at 10k+. *)
  let s = Diffkit.sweep Oracle.leg (Oracle.cases ~seed:0x5EEDL ~count:3000) in
  check_clean "lockstep" ~cases:3000 s;
  (* the generator is actually exercising the interesting corners *)
  checkb
    (Printf.sprintf "compressed cases present (%d)" (Diffkit.count s "compressed"))
    true
    (Diffkit.count s "compressed" > 300);
  checkb
    (Printf.sprintf "opcode diversity (%d)" (Diffkit.distinct s "op"))
    true
    (Diffkit.distinct s "op" > 100);
  checkb "some agreed faults (both sides refuse)" true
    (Diffkit.count s "agree-fault" > 0);
  checki "agree + agree-fault = cases" 3000
    (Diffkit.count s "agree" + Diffkit.count s "agree-fault")

let test_check_replay () =
  (* a case id is deterministic and the replay reports the decoded insn
     and the pre-state *)
  let r1 = Diffkit.replay [ Oracle.leg ] "lockstep:42:7" in
  let r2 = Diffkit.replay [ Oracle.leg ] "lockstep:42:7" in
  checkb "same outcome on replay" true (r1 = r2);
  checkb "insn decoded" true
    (List.exists (fun t -> String.starts_with ~prefix:"op=" t) r1.Diffkit.tags);
  checkb "pre-state noted" true
    (List.exists (fun n -> String.starts_with ~prefix:"pre " n) r1.Diffkit.notes)

(* --- the engine and parse legs ----------------------------------------------- *)

let test_engine_sweep () =
  (* fib and the self-modifying mutatee under all four observability
     modes, plus two seeded straight-line programs *)
  let ids = Enginediff.cases ~mutatees:[ "fib" ] ~seeds:2 () in
  check_clean "engine" ~cases:16 (Diffkit.sweep Enginediff.leg ids)

let test_parse_sweep () =
  (* fib against the sequential reference and two adversarial streams
     against domains=1, each at 1/2/4/8 domains *)
  let ids = Parsediff.cases ~mutatees:[ "fib" ] ~seeds:2 in
  check_clean "parse" ~cases:12 (Diffkit.sweep Parsediff.leg ids)

(* --- Diffkit on a deliberately wrong leg ------------------------------------- *)

(* The block engine with x5 perturbed after its run: every case must
   diverge, be reported under its id, and replay to the same diffs. *)
let wrong_engine =
  {
    Diffkit.name = "wrong-engine";
    run =
      (fun ~verbose:_ -> function
        | [ name ] ->
            let image = Diffkit.builtin name in
            let run engine =
              let m = (Rvsim.Loader.load image).Rvsim.Loader.machine in
              ignore
                (match engine with
                | `Interp -> Rvsim.Machine.run_interp m
                | `Block -> Rvsim.Bbcache.run m);
              m
            in
            let a = run `Interp and b = run `Block in
            b.Rvsim.Machine.regs.(5) <- Int64.add b.Rvsim.Machine.regs.(5) 1L;
            let diffs = Diffkit.machines ~a:"interp" ~b:"block" a b in
            { Diffkit.diffs; notes = []; tags = [] }
        | _ -> raise Diffkit.Bad_case);
  }

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_diffkit_wrong_leg () =
  let s = Diffkit.sweep wrong_engine [ "wrong-engine:fib" ] in
  checki "one case" 1 s.Diffkit.cases;
  checki "it diverged" 1 s.Diffkit.failed;
  match s.Diffkit.failures with
  | [ (id, o) ] ->
      Alcotest.(check string) "reported under its id" "wrong-engine:fib" id;
      checkb "the perturbed register is the diff" true
        (match o.Diffkit.diffs with
        | [ d ] -> String.starts_with ~prefix:"x5: interp " d
        | _ -> false);
      let report = Format.asprintf "%a" (Diffkit.pp_summary ~verbose:false) s in
      checkb "report ends in a replay line" true
        (contains report "reproduce: rvcheck replay wrong-engine:fib");
      Alcotest.(check (list string))
        "replay gives the same diffs" o.Diffkit.diffs
        (Diffkit.replay [ wrong_engine ] id).Diffkit.diffs;
      checkb "a malformed id is rejected" true
        (match Diffkit.replay [ wrong_engine ] "wrong-engine:nosuch" with
        | _ -> false
        | exception Diffkit.Bad_case -> true)
  | _ -> Alcotest.fail "expected exactly one reported failure"

(* --- the exhaustive compressed-decoder sweep --------------------------------- *)

let test_decoder_sweep () =
  let accepted, violations = Decode_check.sweep () in
  List.iter
    (fun (v : Decode_check.violation) ->
      Printf.printf "decoder violation 0x%04x: %s\n" v.Decode_check.v_word
        v.Decode_check.v_msg)
    violations;
  checki "no violations" 0 (List.length violations);
  (* sanity on the sweep itself: a healthy fraction of the quadrant-0/1/2
     space decodes, and the reserved carve-outs keep it below total *)
  checkb
    (Printf.sprintf "plausible acceptance count (%d)" accepted)
    true
    (accepted > 40_000 && accepted < 49_152)

(* --- the rewrite round-trip -------------------------------------------------- *)

let test_roundtrip_transparent () =
  (* transparent, and the probe fired: a zero probe count is a diff *)
  let s = Diffkit.sweep Roundtrip.leg (Roundtrip.cases [ "fib"; "calls" ]) in
  check_clean "roundtrip" ~cases:2 s

let test_roundtrip_clock_note () =
  (* matmul reads the cycle CSR: its stdout legitimately observes the
     instrumentation overhead, which must land as a note, not a diff *)
  let r = Diffkit.replay [ Roundtrip.leg ] "roundtrip:matmul" in
  checkb "matmul transparent modulo time" true (r.Diffkit.diffs = []);
  checkb "observed-time note recorded" true
    (List.exists (fun n -> contains n "differs as expected") r.Diffkit.notes)

let () =
  Alcotest.run "check"
    [
      ( "fuzzer",
        [
          Alcotest.test_case "prng determinism" `Quick test_prng_determinism;
          Alcotest.test_case "case determinism" `Quick test_fuzz_determinism;
        ] );
      ( "lockstep",
        [
          Alcotest.test_case "sweep: zero divergences" `Quick
            test_lockstep_sweep;
          Alcotest.test_case "replay determinism" `Quick test_check_replay;
        ] );
      ( "engine",
        [
          Alcotest.test_case "fib + 2 seeds: zero divergences" `Quick
            test_engine_sweep;
        ] );
      ( "parse",
        [
          Alcotest.test_case "fib + 2 seeds: zero divergences" `Quick
            test_parse_sweep;
        ] );
      ( "diffkit",
        [
          Alcotest.test_case "wrong leg reported and replayed" `Quick
            test_diffkit_wrong_leg;
        ] );
      ( "decoder",
        [ Alcotest.test_case "exhaustive halfword sweep" `Quick test_decoder_sweep ] );
      ( "roundtrip",
        [
          Alcotest.test_case "transparent mutatees" `Quick
            test_roundtrip_transparent;
          Alcotest.test_case "clock-reading mutatee" `Quick
            test_roundtrip_clock_note;
        ] );
    ]
