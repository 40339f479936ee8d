(* rvrewrite: command-line static binary rewriter — counter
   instrumentation at chosen points, paper Figure 1's left path as a
   tool.

     dune exec bin/rvrewrite.exe -- in.elf out.elf \
        --entry multiply --blocks multiply --exits main                  *)

open Cmdliner

let rewrite input output entries blocks exits verbose telemetry manifest_out
    domains =
  Telemetry.start telemetry;
  let binary = Core.open_file ~domains input in
  let m = Core.create_mutator binary in
  let n = ref 0 in
  let counter_for tag name =
    incr n;
    Core.create_counter m (Printf.sprintf "%s_%s" tag name)
  in
  List.iter
    (fun f ->
      Core.insert m (Core.at_entry binary f)
        [ Codegen_api.Snippet.incr (counter_for "entry" f) ])
    entries;
  List.iter
    (fun f ->
      let c = counter_for "blocks" f in
      List.iter
        (fun pt -> Core.insert m pt [ Codegen_api.Snippet.incr c ])
        (Core.at_blocks binary f))
    blocks;
  List.iter
    (fun f ->
      let c = counter_for "exits" f in
      List.iter
        (fun pt -> Core.insert m pt [ Codegen_api.Snippet.incr c ])
        (Core.at_exits binary f))
    exits;
  Core.rewrite_to_file m output;
  let s = Core.stats m in
  Format.printf "wrote %s@\n%a@." output Patch_api.Rewriter.pp_stats s;
  (match manifest_out with
  | None -> ()
  | Some path -> (
      match Core.manifest m with
      | Some mf ->
          Patch_api.Manifest.write_file path mf;
          Printf.printf "wrote manifest %s\n" path
      | None -> prerr_endline "rvrewrite: no manifest available"));
  if verbose then
    List.iter
      (fun (addr, strat) ->
        Printf.printf "  springboard 0x%Lx: %s\n" addr
          (Patch_api.Rewriter.strategy_name strat))
      s.Patch_api.Rewriter.strategies;
  Telemetry.finish telemetry

let input_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"IN" ~doc:"input binary")

let output_arg =
  Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT" ~doc:"output binary")

let entries_arg =
  Arg.(value & opt_all string [] & info [ "entry" ] ~doc:"count entries of FUNC")

let blocks_arg =
  Arg.(value & opt_all string [] & info [ "blocks" ] ~doc:"count all blocks of FUNC")

let exits_arg =
  Arg.(value & opt_all string [] & info [ "exits" ] ~doc:"count returns of FUNC")

let verbose_arg = Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"show springboards")

let manifest_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "manifest" ] ~docv:"M.json"
        ~doc:"write the patch manifest for rvlint verify")

let domains_arg =
  Arg.(
    value
    & opt int (Domain.recommended_domain_count ())
    & info [ "domains" ] ~docv:"N"
        ~doc:"parse CFGs across $(docv) domains (default: available cores)")

let cmd =
  Cmd.v
    (Cmd.info "rvrewrite" ~doc:"statically instrument a RISC-V binary")
    Term.(
      const rewrite $ input_arg $ output_arg $ entries_arg $ blocks_arg
      $ exits_arg $ verbose_arg $ Telemetry.term $ manifest_arg $ domains_arg)

let () = exit (Cmd.eval cmd)
