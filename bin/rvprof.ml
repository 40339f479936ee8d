(* rvprof: the PerfAPI sampling call-path profiler as a tool.  The
   mutatee (an ELF file or a built-in minicc program) runs *without*
   instrumentation under rvsim; the deterministic cycle timer interrupts
   it every --period cycles, PerfAPI unwinds the stack and aggregates a
   calling-context tree with HPM counter deltas.

     dune exec bin/rvprof.exe -- profile matmul
     dune exec bin/rvprof.exe -- profile matmul --validate
     dune exec bin/rvprof.exe -- report matmul --min-samples 2
     dune exec bin/rvprof.exe -- flame matmul --out matmul.folded        *)

open Cmdliner

let load_binary mutatee =
  if Sys.file_exists mutatee then Core.open_file mutatee
  else
    match List.assoc_opt mutatee Minicc.Programs.builtins with
    | Some src ->
        Core.open_image (Minicc.Driver.compile (Lazy.force src)).Minicc.Driver.image
    | None ->
        Printf.eprintf "rvprof: %s is neither a file nor a builtin (%s)\n"
          mutatee
          (String.concat ", " (List.map fst Minicc.Programs.builtins));
        exit 2

let config_of period cost max_frames events =
  let events =
    match Perf_api.Events.parse events with
    | Ok [] -> Perf_api.Events.default
    | Ok evs -> evs
    | Error msg ->
        Printf.eprintf "rvprof: --events: %s\n" msg;
        exit 2
  in
  {
    Perf_api.Profiler.default_config with
    Perf_api.Profiler.period = Int64.of_int period;
    sample_cost = cost;
    max_frames;
    events;
  }

let run_profile telemetry mutatee period cost max_frames events =
  Telemetry.start telemetry;
  let binary = load_binary mutatee in
  let config = config_of period cost max_frames events in
  let r = Perf_api.Profiler.profile ~config binary in
  Format.printf "mutatee: %s, sampling every %d cycles@." mutatee period;
  Format.printf "exit: %a@." Rvsim.Machine.pp_stop r.Perf_api.Profiler.r_stop;
  if String.length r.Perf_api.Profiler.r_stdout > 0 then
    Format.printf "stdout: %s@." (String.trim r.Perf_api.Profiler.r_stdout);
  (binary, config, r)

(* --- profile: the flat table (+ optional cross-validation) ------------------ *)

let profile_cmd_run mutatee period cost max_frames events top validate telemetry =
  let binary, config, r = run_profile telemetry mutatee period cost max_frames events in
  Format.printf "@.%a" (Perf_api.Report.pp_flat ~n:top) r;
  if validate then begin
    let v = Perf_api.Validate.validate ~config binary in
    Format.printf "@.== cross-validation against TraceAPI ==@.%a@."
      Perf_api.Validate.pp v;
    if not v.Perf_api.Validate.v_agree then exit 1
  end;
  Telemetry.finish telemetry

(* --- report: the calling-context tree --------------------------------------- *)

let report_cmd_run mutatee period cost max_frames events min_samples telemetry =
  let _, _, r = run_profile telemetry mutatee period cost max_frames events in
  Format.printf "@.== calling-context tree ==@.%a"
    (Perf_api.Report.pp_cct ~min_samples) r;
  Telemetry.finish telemetry

(* --- flame: folded stacks ---------------------------------------------------- *)

let flame_cmd_run mutatee period cost max_frames events out telemetry =
  let _, _, r = run_profile telemetry mutatee period cost max_frames events in
  let text = Perf_api.Report.folded_string r in
  (match out with
  | None -> Format.printf "@.%s" text
  | Some path ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      Format.printf "folded stacks written to %s (%d lines)@." path
        (List.length (String.split_on_char '\n' (String.trim text))));
  Telemetry.finish telemetry

(* --- argument plumbing -------------------------------------------------------- *)

let mutatee_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"MUTATEE" ~doc:"ELF file or builtin program name")

let period_arg =
  Arg.(
    value & opt int 10_000
    & info [ "period" ] ~docv:"CYCLES" ~doc:"cycles between samples")

let cost_arg =
  Arg.(
    value & opt int 120
    & info [ "sample-cost" ] ~docv:"CYCLES"
        ~doc:"simulated cycles charged to the mutatee per sample")

let max_frames_arg =
  Arg.(
    value & opt int 32
    & info [ "max-frames" ] ~docv:"N" ~doc:"unwind depth limit")

let events_arg =
  Arg.(
    value & opt string ""
    & info [ "events" ] ~docv:"EV,.."
        ~doc:
          "HPM events per sample: branch, taken-branch, load, store, \
           compressed, flush (default branch,taken-branch,load,store)")

let top_arg =
  Arg.(value & opt int 20 & info [ "top" ] ~docv:"N" ~doc:"rows in the flat table")

let validate_arg =
  Arg.(
    value & flag
    & info [ "validate" ]
        ~doc:"cross-validate the hottest function against a TraceAPI run")

let min_samples_arg =
  Arg.(
    value & opt int 1
    & info [ "min-samples" ] ~docv:"N" ~doc:"hide CCT nodes below N samples")

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE" ~doc:"write folded stacks to FILE")

let profile_cmd =
  Cmd.v
    (Cmd.info "profile" ~doc:"flat per-function profile")
    Term.(
      const profile_cmd_run $ mutatee_arg $ period_arg $ cost_arg
      $ max_frames_arg $ events_arg $ top_arg $ validate_arg $ Telemetry.term)

let report_cmd =
  Cmd.v
    (Cmd.info "report" ~doc:"calling-context tree dump")
    Term.(
      const report_cmd_run $ mutatee_arg $ period_arg $ cost_arg
      $ max_frames_arg $ events_arg $ min_samples_arg $ Telemetry.term)

let flame_cmd =
  Cmd.v
    (Cmd.info "flame" ~doc:"folded flame-graph stacks")
    Term.(
      const flame_cmd_run $ mutatee_arg $ period_arg $ cost_arg
      $ max_frames_arg $ events_arg $ out_arg $ Telemetry.term)

let cmd =
  Cmd.group
    (Cmd.info "rvprof"
       ~doc:"sampling call-path profiler for RISC-V binaries (PerfAPI)")
    [ profile_cmd; report_cmd; flame_cmd ]

let () = exit (Cmd.eval cmd)
