(* rvverify: symbolic equivalence checking of rewrites over the sailsem
   IR — the verification tier above rvlint's structural rules.

     rvverify verify orig rewritten --manifest m.json [--json] [--strict]
         symbolically prove each patch site of a rewrite observationally
         equivalent to the original block modulo the manifest's declared
         snippet effects; exit 1 on a disproof (with --strict also on an
         inconclusive site), exit 2 on unreadable inputs
     rvverify smoke
         instrument + rewrite every built-in minicc mutatee and require
         every site to prove, then require every seeded wrong-rewrite
         class to pass the structural rules, fail symbolically and so
         fail Check.verify_rewrite, while its healthy twin verifies
         clean (`make verify-smoke`) *)

open Cmdliner
open Verify_api

let pr fmt = Format.printf fmt

let config max_steps max_paths =
  { Equiv.default_config with Symexec.max_steps; max_paths }

let run_verify orig_path rw_path manifest_path json strict max_steps max_paths =
  match
    try
      let b = Core.open_file orig_path in
      let m = Patch_api.Manifest.read_file manifest_path in
      let rw = (Symtab.of_file rw_path).Symtab.image in
      Ok (b, m, rw)
    with e -> Error (Printexc.to_string e)
  with
  | Error e ->
      Printf.eprintf "rvverify: %s\n" e;
      2
  | Ok (b, m, rw) ->
      let r =
        Check.check_manifest
          ~config:(config max_steps max_paths)
          ~orig:b.Core.symtab b.Core.cfg ~manifest:m ~rewritten:rw
      in
      if json then pr "%s@." (Dyn_util.Jsonw.to_string (Check.to_json r))
      else begin
        List.iter
          (fun (s : Equiv.site) ->
            let v =
              match s.Equiv.s_verdict with
              | Equiv.Proved -> "proved"
              | Equiv.Failed _ -> "FAILED"
              | Equiv.Unknown _ -> "unknown"
            in
            pr "0x%-10Lx %-12s %-8s %d+%d paths, %d steps@." s.Equiv.s_block
              s.Equiv.s_strategy v s.Equiv.s_paths_orig s.Equiv.s_paths_tramp
              s.Equiv.s_steps;
            match s.Equiv.s_verdict with
            | Equiv.Failed issues ->
                List.iter (fun i -> pr "    %s@." i) issues
            | Equiv.Unknown msg -> pr "    %s@." msg
            | Equiv.Proved -> ())
          r.Check.r_sites;
        pr "%d site(s): %d proved, %d failed, %d inconclusive@."
          (List.length r.Check.r_sites)
          r.Check.r_ok r.Check.r_failed r.Check.r_unknown
      end;
      if r.Check.r_failed > 0 then 1
      else if strict && r.Check.r_unknown > 0 then 1
      else 0

(* --- smoke ---------------------------------------------------------------- *)

let builtins =
  [
    ("fib", lazy Minicc.Programs.fib);
    ("calls", lazy Minicc.Programs.calls);
    ("switch", lazy Minicc.Programs.switch_demo);
    ("mixed", lazy Minicc.Programs.mixed);
    ("matmul", lazy (Minicc.Programs.matmul ~n:8 ~reps:1));
  ]

let smoke_minicc name src =
  let compiled = Minicc.Driver.compile src in
  let b = Core.open_image compiled.Minicc.Driver.image in
  let m = Core.create_mutator b in
  let n = ref 0 in
  let counter () =
    incr n;
    Core.create_counter m (Printf.sprintf "verify_smoke_%d" !n)
  in
  List.iter
    (fun (f : Parse_api.Cfg.func) ->
      let fname = f.Parse_api.Cfg.f_name in
      Core.insert m (Core.at_entry b fname)
        [ Codegen_api.Snippet.incr (counter ()) ];
      List.iter
        (fun pt -> Core.insert m pt [ Codegen_api.Snippet.incr (counter ()) ])
        (Core.at_blocks b fname))
    (Core.functions b);
  let rw = Core.rewrite m in
  match Core.manifest m with
  | None ->
      pr "%-8s FAILED: no manifest after rewrite@." name;
      1
  | Some manifest ->
      let r =
        Check.check_manifest ~orig:b.Core.symtab b.Core.cfg ~manifest
          ~rewritten:rw
      in
      pr "%-8s %d site(s): %d proved, %d failed, %d inconclusive@." name
        (List.length r.Check.r_sites)
        r.Check.r_ok r.Check.r_failed r.Check.r_unknown;
      List.iter
        (fun d -> pr "  %a@." Lint_api.Diag.pp d)
        (Check.to_diags r);
      if r.Check.r_ok = List.length r.Check.r_sites then 0 else 1

(* Each seeded class must slip past the structural rules, be caught by
   the symbolic tier directly, and fail [Check.verify_rewrite] (the
   path `rvlint verify` takes); its healthy twin must verify clean. *)
let smoke_wrongs () =
  List.fold_left
    (fun acc (c : Wrongs.case) ->
      let orig = c.Wrongs.wc_symtab and cfg = c.Wrongs.wc_cfg in
      let manifest = c.Wrongs.wc_manifest in
      let structural =
        Lint_api.Verifier.verify ~orig cfg ~manifest ~rewritten:c.Wrongs.wc_bad
      in
      let se = Lint_api.Diag.n_errors structural in
      let r = Check.check_manifest ~orig cfg ~manifest ~rewritten:c.Wrongs.wc_bad in
      let caught = r.Check.r_failed > 0 in
      let errors rewritten =
        Lint_api.Diag.n_errors
          (Check.verify_rewrite ~orig cfg ~manifest ~rewritten)
      in
      let ve = errors c.Wrongs.wc_bad and he = errors c.Wrongs.wc_healthy in
      pr "%-22s structural: %d error(s); symbolic: %s; verify_rewrite: %d \
          error(s), healthy twin %d@."
        c.Wrongs.wc_name se
        (if caught then "caught" else "MISSED")
        ve he;
      if se = 0 && caught && ve > 0 && he = 0 then acc else acc + 1)
    0 (Wrongs.corpus ())

let run_smoke () =
  let rc =
    List.fold_left
      (fun acc (name, src) -> acc + smoke_minicc name (Lazy.force src))
      0 builtins
  in
  let rc = rc + smoke_wrongs () in
  if rc = 0 then begin
    pr "rvverify smoke: ok@.";
    0
  end
  else 1

(* --- CLI ------------------------------------------------------------------ *)

(* Plain string args (not [Arg.file]): unreadable inputs must flow
   through our own handler and exit 2, the rvdump --json convention. *)
let orig_arg =
  Arg.(
    required & pos 0 (some string) None
    & info [] ~docv:"ORIG" ~doc:"original binary")

let rw_arg =
  Arg.(
    required & pos 1 (some string) None
    & info [] ~docv:"REWRITTEN" ~doc:"rewritten binary")

let manifest_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "manifest" ] ~docv:"M.json"
        ~doc:"patch manifest emitted by the rewrite (rvrewrite --manifest)")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"machine-readable JSON output")

let strict_arg =
  Arg.(
    value & flag
    & info [ "strict" ] ~doc:"treat inconclusive (timeout) sites as failures")

let max_steps_arg =
  Arg.(
    value
    & opt int Equiv.default_config.Symexec.max_steps
    & info [ "max-steps" ] ~docv:"N"
        ~doc:"per-site symbolic instruction budget")

let max_paths_arg =
  Arg.(
    value
    & opt int Equiv.default_config.Symexec.max_paths
    & info [ "max-paths" ] ~docv:"N" ~doc:"per-site path (fork) budget")

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:"symbolically prove a rewrite equivalent to its original")
    Term.(
      const run_verify $ orig_arg $ rw_arg $ manifest_arg $ json_arg
      $ strict_arg $ max_steps_arg $ max_paths_arg)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:
         "prove every built-in mutatee rewrite; catch every seeded \
          wrong-rewrite class (CI)")
    Term.(const run_smoke $ const ())

let cmd =
  Cmd.group
    (Cmd.info "rvverify"
       ~doc:"symbolic equivalence checker for instrumented rewrites")
    [ verify_cmd; smoke_cmd ]

let () = exit (Cmd.eval' cmd)
