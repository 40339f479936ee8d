(* rvlint: static instrumentation-safety analyzer and patch verifier.

     rvlint rules
         print the diagnostic catalog (rule id, severity, scope)
     rvlint lint mutatee [--json]
         parse a binary and report instrumentation hazards: overlaps,
         misalignment, unresolved indirect jumps, unreachable blocks,
         non-standard prologues, psABI callee-saved clobbers, ...
     rvlint verify orig rewritten --manifest m.json [--json]
         check a rewritten binary against the manifest its rewrite
         emitted (rvrewrite --manifest): springboard targets on
         instruction boundaries, §4.3 dead-register claims, jump-table
         integrity, then a symbolic proof that each relocated block is
         equivalent to the original (Check.verify_rewrite);
         exit 1 on any error diagnostic, 2 on unreadable input
     rvlint smoke
         lint + instrument + rewrite + verify every built-in mutatee in
         memory and require every site to prove, then require every
         seeded wrong-rewrite class (Verify_api.Wrongs) to pass the
         structural rules yet fail symbolically and in verify_rewrite;
         non-zero exit otherwise (`make lint-smoke`) *)

open Cmdliner
open Lint_api
open Verify_api

let pr fmt = Format.printf fmt

let emit json ds =
  if json then pr "%s@." (Dyn_util.Jsonw.to_string (Diag.list_to_json (Diag.sort ds)))
  else pr "%a" Diag.pp_report ds

let run_rules () =
  pr "%a" Rules.pp_catalog ();
  0

let run_lint file json domains =
  match
    try Ok (Core.open_file ~domains file)
    with e -> Error (Printexc.to_string e)
  with
  | Error e ->
      Printf.eprintf "rvlint: %s: %s\n" file e;
      2
  | Ok b ->
      let ds = Linter.lint b.Core.symtab b.Core.cfg in
      emit json ds;
      if Diag.n_errors ds > 0 then 1 else 0

let run_verify orig_path rw_path manifest_path json =
  match
    try
      let b = Core.open_file orig_path in
      let m = Patch_api.Manifest.read_file manifest_path in
      let rw = (Symtab.of_file rw_path).Symtab.image in
      Ok (b, m, rw)
    with e -> Error (Printexc.to_string e)
  with
  | Error e ->
      Printf.eprintf "rvlint: %s\n" e;
      2
  | Ok (b, m, rw) ->
      let ds, r =
        Check.verify_rewrite ~orig:b.Core.symtab b.Core.cfg
          ~manifest:m ~rewritten:rw
      in
      emit json ds;
      if not json then
        pr "%d site(s): %d proved, %d failed, %d inconclusive@."
          (List.length r.Check.r_sites) r.Check.r_ok r.Check.r_failed
          r.Check.r_unknown;
      if Diag.n_errors ds > 0 then 1 else 0

(* The CI profile: every built-in mutatee is linted, instrumented at
   function entries, every block and loop back edge, rewritten with the
   default strategy mix, and verified structurally and symbolically. *)
let smoke_one name src =
  let compiled = Minicc.Driver.compile src in
  let b = Core.open_image compiled.Minicc.Driver.image in
  let lint_ds = Linter.lint b.Core.symtab b.Core.cfg in
  let m = Core.create_mutator b in
  let n = ref 0 in
  let counter () =
    incr n;
    Core.create_counter m (Printf.sprintf "lint_smoke_%d" !n)
  in
  List.iter
    (fun (f : Parse_api.Cfg.func) ->
      let fname = f.Parse_api.Cfg.f_name in
      Core.insert m (Core.at_entry b fname)
        [ Codegen_api.Snippet.incr (counter ()) ];
      List.iter
        (fun pt -> Core.insert m pt [ Codegen_api.Snippet.incr (counter ()) ])
        (Core.at_blocks b fname);
      List.iter
        (fun pt -> Core.insert m pt [ Codegen_api.Snippet.incr (counter ()) ])
        (Core.at_loop_backedges b fname))
    (Core.functions b);
  let rw = Core.rewrite m in
  match Core.manifest m with
  | None ->
      pr "%-8s FAILED: no manifest after rewrite@." name;
      (1, 0, 0)
  | Some manifest ->
      let verify_ds, r =
        Check.verify_rewrite ~orig:b.Core.symtab b.Core.cfg ~manifest
          ~rewritten:rw
      in
      let sites = List.length r.Check.r_sites and proved = r.Check.r_ok in
      let le = Diag.n_errors lint_ds and ve = Diag.n_errors verify_ds in
      pr "%-8s lint: %d diagnostic(s), %d error(s); verify: %d diagnostic(s), \
          %d error(s), %d/%d site(s) proved@."
        name (List.length lint_ds) le (List.length verify_ds) ve proved sites;
      List.iter
        (fun d -> pr "  %a@." Diag.pp d)
        (Diag.errors lint_ds @ Diag.errors verify_ds);
      ((if le + ve > 0 || proved < sites then 1 else 0), proved, sites)

(* Each seeded class must slip past the structural rules, be disproved
   by the symbolic tier and so fail [verify_rewrite], while its healthy
   twin verifies clean.  Returns whether the class was caught. *)
let smoke_wrong (c : Wrongs.case) =
  let open Wrongs in
  let orig = c.wc_symtab and cfg = c.wc_cfg and manifest = c.wc_manifest in
  let se =
    Diag.n_errors (Verifier.verify ~orig cfg ~manifest ~rewritten:c.wc_bad)
  in
  let verify rewritten =
    Check.verify_rewrite ~orig cfg ~manifest ~rewritten
  in
  let bad_ds, bad_r = verify c.wc_bad and healthy_ds, _ = verify c.wc_healthy in
  let disproved = bad_r.Check.r_failed > 0 in
  let ve = Diag.n_errors bad_ds and he = Diag.n_errors healthy_ds in
  pr "%-22s structural: %d error(s); symbolic: %s; verify: %d error(s), \
      healthy twin %d@."
    c.wc_name se
    (if disproved then "caught" else "MISSED")
    ve he;
  se = 0 && disproved && ve > 0 && he = 0

let run_smoke () =
  let rc, proved, sites =
    List.fold_left
      (fun (rc, proved, sites) (name, src) ->
        let rc', proved', sites' = smoke_one name (Lazy.force src) in
        (rc + rc', proved + proved', sites + sites'))
      (0, 0, 0) Minicc.Programs.builtins
  in
  pr "%d/%d site(s) proved@." proved sites;
  let corpus = Wrongs.corpus () in
  let caught = List.length (List.filter smoke_wrong corpus) in
  pr "%d/%d wrong-rewrite classes caught@." caught (List.length corpus);
  if rc = 0 && caught = List.length corpus then begin
    pr "lint-smoke: ok@.";
    0
  end
  else 1

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"machine-readable JSON output")

let domains_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "domains" ] ~docv:"N"
        ~doc:"parse CFGs across $(docv) domains (default: available cores)")

(* Plain string args, not [Arg.file]: cmdliner's pre-validation exits
   124 on a missing path, but unreadable inputs must flow through our
   own handler and exit 2, the rvdump --json convention. *)
let file_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"BIN" ~doc:"binary to lint")

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

let rules_cmd =
  Cmd.v (Cmd.info "rules" ~doc:"print the diagnostic catalog")
    Term.(const run_rules $ const ())

let lint_cmd =
  Cmd.v
    (Cmd.info "lint" ~doc:"report instrumentation hazards in a binary")
    Term.(const run_lint $ file_arg $ json_arg $ domains_arg)

let verify_cmd =
  Cmd.v
    (Cmd.info "verify" ~doc:"check a rewritten binary against its manifest")
    Term.(
      const run_verify $ orig_arg $ rw_arg $ manifest_arg $ json_arg)

let smoke_cmd =
  Cmd.v
    (Cmd.info "smoke"
       ~doc:"lint + rewrite + verify the built-in mutatees (CI)")
    Term.(const run_smoke $ const ())

let cmd =
  Cmd.group
    (Cmd.info "rvlint"
       ~doc:
         "static instrumentation-safety analyzer and patch verifier")
    [ rules_cmd; lint_cmd; verify_cmd; smoke_cmd ]

let () = exit (Cmd.eval' cmd)
