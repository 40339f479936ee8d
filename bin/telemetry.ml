(* The --stats and --trace-out flags shared by rvrewrite, rvtrace and
   rvprof.  Either flag turns span tracing on; at exit --stats prints
   the per-span totals read back from that trace and every nonzero
   registry counter (the block engine's sim.bb.* among them), and
   --trace-out writes it. *)

open Cmdliner

type t = { stats : bool; trace_out : string option }

let term =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"report toolkit self-telemetry: span totals and counters")
  and trace_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "write a span trace of the toolkit itself (Chrome trace-event \
             JSON; NDJSON if FILE ends in .ndjson)")
  in
  Term.(const (fun stats trace_out -> { stats; trace_out }) $ stats $ trace_out)

let start t = if t.stats || t.trace_out <> None then Dyn_obs.Trace.set_enabled true

let finish t =
  if t.stats then Format.printf "%a%!" Dyn_obs.Trace.pp_stats ();
  Option.iter
    (fun path ->
      Dyn_obs.Trace.write_out path;
      Format.printf "wrote trace %s@." path)
    t.trace_out
