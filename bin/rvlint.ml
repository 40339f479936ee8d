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
         equivalent to the original (Verify_api.Check.verify_rewrite)
     rvlint smoke
         lint + instrument + rewrite + verify every built-in mutatee in
         memory; non-zero exit on any error diagnostic (`make lint-smoke`) *)

open Cmdliner
open Lint_api

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
      let ds =
        Verify_api.Check.verify_rewrite ~orig:b.Core.symtab b.Core.cfg
          ~manifest:m ~rewritten:rw
      in
      emit json ds;
      if Diag.n_errors ds > 0 then 1 else 0

(* The CI profile: every built-in mutatee is linted, instrumented at
   function entries, every block and loop back edge, rewritten with the
   default strategy mix, and verified structurally and symbolically. *)
let builtins =
  [
    ("fib", lazy Minicc.Programs.fib);
    ("calls", lazy Minicc.Programs.calls);
    ("switch", lazy Minicc.Programs.switch_demo);
    ("mixed", lazy Minicc.Programs.mixed);
    ("matmul", lazy (Minicc.Programs.matmul ~n:8 ~reps:1));
  ]

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
      (1, 0)
  | Some manifest ->
      let verify_ds =
        Verify_api.Check.verify_rewrite ~orig:b.Core.symtab b.Core.cfg
          ~manifest ~rewritten:rw
      in
      (* a site is proved when the symbolic tier said nothing about it *)
      let unproved =
        List.sort_uniq Int64.compare
          (List.filter_map
             (fun (d : Diag.t) ->
               if String.starts_with ~prefix:"symbolic-" d.Diag.d_rule then
                 Some d.Diag.d_addr
               else None)
             verify_ds)
      in
      let sites = List.length manifest.Patch_api.Manifest.m_entries in
      let proved = sites - List.length unproved in
      let le = Diag.n_errors lint_ds and ve = Diag.n_errors verify_ds in
      pr "%-8s lint: %d diagnostic(s), %d error(s); verify: %d diagnostic(s), \
          %d error(s), %d/%d site(s) proved@."
        name (List.length lint_ds) le (List.length verify_ds) ve proved sites;
      List.iter
        (fun d -> pr "  %a@." Diag.pp d)
        (Diag.errors lint_ds @ Diag.errors verify_ds);
      ((if le + ve > 0 then 1 else 0), proved)

let run_smoke () =
  let rc, proved =
    List.fold_left
      (fun (rc, proved) (name, src) ->
        let rc', proved' = smoke_one name (Lazy.force src) in
        (rc + rc', proved + proved'))
      (0, 0) builtins
  in
  if rc = 0 then begin
    pr "lint-smoke: ok, %d site(s) proved@." proved;
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
