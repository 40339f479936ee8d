(* rvtrace: instrument -> run -> analyze in one command, the TraceAPI
   workflow as a tool.  The mutatee is an ELF file or one of the
   built-in minicc programs; trace points are planted per CFG
   block/call site/return/memory access, the binary runs under rvsim
   with the host-side sink servicing ring flushes, and the collected
   stream feeds the offline analyzers.

     dune exec bin/rvtrace.exe -- fib --report coverage,calltree
     dune exec bin/rvtrace.exe -- matmul --funcs multiply --mem \
        --no-blocks --report mem
     dune exec bin/rvtrace.exe -- mutatee.elf --calls --returns \
        --out trace.bin                                                  *)

open Cmdliner

let load_binary mutatee =
  if Sys.file_exists mutatee then Core.open_file mutatee
  else
    match List.assoc_opt mutatee Minicc.Programs.builtins with
    | Some src -> Core.open_image (Minicc.Driver.compile (Lazy.force src)).Minicc.Driver.image
    | None ->
        Printf.eprintf "rvtrace: %s is neither a file nor a builtin (%s)\n"
          mutatee
          (String.concat ", " (List.map fst Minicc.Programs.builtins));
        exit 2

let known_reports = [ "coverage"; "edges"; "calltree"; "mem"; "all" ]

let run mutatee funcs no_blocks calls returns mem capacity reports out verbose
    telemetry =
  Telemetry.start telemetry;
  (match List.filter (fun r -> not (List.mem r known_reports)) reports with
  | [] -> ()
  | bad ->
      Printf.eprintf "rvtrace: unknown report(s) %s (expected %s)\n"
        (String.concat ", " bad)
        (String.concat ", " known_reports);
      exit 2);
  let binary = load_binary mutatee in
  let rw = Patch_api.Rewriter.create binary.Core.symtab binary.Core.cfg in
  let ring =
    try Trace_api.Ring.create rw ~capacity
    with Invalid_argument msg ->
      Printf.eprintf "rvtrace: --ring %d: %s\n" capacity msg;
      exit 2
  in
  let opts =
    {
      Trace_api.Tracer.blocks = not no_blocks;
      calls;
      returns;
      mem;
    }
  in
  let funcs = match funcs with [] -> None | fs -> Some fs in
  let n_points =
    Trace_api.Tracer.instrument rw binary.Core.cfg ~ring ?funcs opts
  in
  let sink, stop, out_str =
    Trace_api.Sink.run ring (Patch_api.Rewriter.rewrite rw)
  in
  let records = Trace_api.Sink.records sink in
  Format.printf "mutatee: %s (%d trace points)@." mutatee n_points;
  Format.printf "exit: %a@." Rvsim.Machine.pp_stop stop;
  if String.length out_str > 0 then
    Format.printf "stdout: %s@." (String.trim out_str);
  Format.printf "trace: %d records, %d overflow flushes@."
    (Trace_api.Sink.n_records sink)
    (Trace_api.Sink.flushes sink);
  Format.printf "%a@." Patch_api.Rewriter.pp_stats
    (Patch_api.Rewriter.stats rw);
  let name = Trace_api.Symbolize.addr_name binary.Core.cfg in
  let want r = List.mem "all" reports || List.mem r reports in
  if want "coverage" then begin
    Format.printf "@.== basic-block coverage ==@.";
    Format.printf "%a" (Trace_api.Analyze.pp_coverage ~name) records
  end;
  if want "edges" then begin
    Format.printf "@.== hottest edges ==@.";
    Format.printf "%a" (Trace_api.Analyze.pp_edges ~name ~n:10) records
  end;
  if want "calltree" then begin
    Format.printf "@.== call tree ==@.";
    Format.printf "%a" (Trace_api.Analyze.pp_call_tree ~name) records
  end;
  if want "mem" then begin
    Format.printf "@.== memory-access histogram ==@.";
    Format.printf "%a" (Trace_api.Analyze.pp_mem_histogram ~bucket:64) records
  end;
  (match out with
  | None -> ()
  | Some path ->
      let oc = open_out_bin path in
      output_string oc (Trace_api.Sink.raw sink);
      close_out oc;
      Format.printf "@.raw trace written to %s@." path);
  if verbose then
    List.iter (fun r -> Format.printf "%a@." Trace_api.Record.pp r) records;
  Telemetry.finish telemetry

let mutatee_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"MUTATEE" ~doc:"ELF file or builtin program name")

let funcs_arg =
  Arg.(
    value & opt_all string []
    & info [ "funcs" ] ~docv:"FUNC" ~doc:"trace only these functions")

let no_blocks_arg =
  Arg.(value & flag & info [ "no-blocks" ] ~doc:"disable block-exec records")

let calls_arg =
  Arg.(value & flag & info [ "calls" ] ~doc:"record call sites")

let returns_arg =
  Arg.(value & flag & info [ "returns" ] ~doc:"record function exits")

let mem_arg =
  Arg.(value & flag & info [ "mem" ] ~doc:"record memory accesses")

let ring_arg =
  Arg.(
    value & opt int 256
    & info [ "ring" ] ~docv:"CAP"
        ~doc:"ring capacity in records (power of two)")

let report_arg =
  Arg.(
    value
    & opt (list string) [ "coverage" ]
    & info [ "report" ] ~docv:"R,.."
        ~doc:"reports: coverage, edges, calltree, mem, all")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"save the raw trace stream")

let verbose_arg =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"dump every record")

let cmd =
  Cmd.v
    (Cmd.info "rvtrace"
       ~doc:"trace a RISC-V binary via static instrumentation")
    Term.(
      const run $ mutatee_arg $ funcs_arg $ no_blocks_arg $ calls_arg
      $ returns_arg $ mem_arg $ ring_arg $ report_arg $ out_arg $ verbose_arg
      $ Telemetry.term)

let () = exit (Cmd.eval cmd)
