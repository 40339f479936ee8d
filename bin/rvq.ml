(* rvq: command-line client for rvserved.

     rvq ping|flush|shutdown [--socket PATH]
     rvq metrics [--json] [--watch SECS]   # live registry scrape
     rvq job <parse|lint|rewrite|verify|profile|trace> <mutatee.elf> \
        [--entries f]... [--blocks f]... [--exits f]... \
        [--period N] [--calls] [--returns] [--mem] [--funcs f]...
     rvq batch [--socket PATH]     # NDJSON requests on stdin

   `job` prints the one response; `batch` streams responses to stdout
   as the daemon finishes them (out of submission order — correlate by
   id).  Exit status 1 if any response has ok=false, 2 on
   connect/protocol errors. *)

open Cmdliner
module W = Serve_api.Wire
module J = Dyn_util.Jsonw
module Obs = Dyn_obs.Registry

let connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX socket)
   with Unix.Unix_error (e, _, _) ->
     Printf.eprintf "rvq: cannot connect to %s: %s\n" socket
       (Unix.error_message e);
     exit 2);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

let send oc (r : W.request) =
  output_string oc (W.encode_request r);
  output_char oc '\n';
  flush oc

let recv ic : W.response =
  match input_line ic with
  | exception End_of_file ->
      Printf.eprintf "rvq: connection closed by server\n";
      exit 2
  | line -> (
      try W.decode_response line
      with W.Wire_error msg ->
        Printf.eprintf "rvq: bad response: %s\n" msg;
        exit 2)

(* one-request round trip on a fresh connection *)
let request socket action =
  let ic, oc = connect socket in
  send oc { W.rq_id = 1L; rq_path = ""; rq_action = action };
  let r = recv ic in
  (try close_in_noerr ic with _ -> ());
  r

let roundtrip socket action =
  let r = request socket action in
  print_endline (W.encode_response r);
  if r.W.rs_ok then 0 else 1

let control socket which =
  let action =
    match which with
    | "ping" -> W.Ping
    | "flush" -> W.Flush
    | "shutdown" -> W.Shutdown
    | _ -> assert false
  in
  roundtrip socket action

(* --- human rendering ------------------------------------------------------ *)

let fmt_ns ns =
  if ns < 1_000 then Printf.sprintf "%dns" ns
  else if ns < 1_000_000 then Printf.sprintf "%.1fus" (float_of_int ns /. 1e3)
  else if ns < 1_000_000_000 then
    Printf.sprintf "%.2fms" (float_of_int ns /. 1e6)
  else Printf.sprintf "%.2fs" (float_of_int ns /. 1e9)

let fmt_q ns = if ns = max_int then ">1s" else fmt_ns ns

(* `rvq metrics`: counters and gauges as name/value rows, histograms
   with count, mean and approximate p50/p99 *)
let print_metrics_table payload =
  let j = J.of_string payload in
  let metrics = J.to_list (J.member "metrics" j) in
  let scalar_rows, hist_rows =
    List.partition
      (fun m -> J.to_str (J.member "type" m) <> "histogram")
      metrics
  in
  List.iter
    (fun m ->
      Printf.printf "%-40s %12Ld  %s\n"
        (J.to_str (J.member "name" m))
        (J.to_int64 (J.member "value" m))
        (J.to_str (J.member "type" m)))
    scalar_rows;
  if hist_rows <> [] then begin
    Printf.printf "%-40s %12s %10s %10s %10s\n" "-- histogram --" "count"
      "mean" "~p50" "~p99";
    List.iter
      (fun m ->
        let count = J.to_int (J.member "count" m) in
        let sum_ns = J.to_int (J.member "sum_ns" m) in
        let hv =
          {
            Obs.hv_count = count;
            hv_sum_ns = sum_ns;
            hv_buckets =
              Array.of_list (List.map J.to_int (J.to_list (J.member "buckets" m)));
          }
        in
        let mean = if count = 0 then 0 else sum_ns / count in
        Printf.printf "%-40s %12d %10s %10s %10s\n"
          (J.to_str (J.member "name" m))
          count (fmt_ns mean)
          (fmt_q (Obs.approx_quantile_ns hv 0.5))
          (fmt_q (Obs.approx_quantile_ns hv 0.99)))
      hist_rows
  end

let metrics socket json watch =
  let scrape () =
    let r = request socket W.Metrics in
    if not r.W.rs_ok then begin
      Printf.eprintf "rvq: %s\n" r.W.rs_error;
      false
    end
    else begin
      (if json then print_endline (W.encode_response r)
       else print_metrics_table r.W.rs_payload);
      flush stdout;
      true
    end
  in
  match watch with
  | None -> if scrape () then 0 else 1
  | Some secs ->
      let secs = if secs <= 0. then 1. else secs in
      let rec loop () =
        if scrape () then begin
          Unix.sleepf secs;
          if not json then print_newline ();
          loop ()
        end
        else 1
      in
      loop ()

let job socket action_name path entries blocks exits period calls returns mem
    funcs =
  let action =
    match action_name with
    | "parse" -> W.Parse
    | "lint" -> W.Lint
    | "rewrite" ->
        W.Rewrite (Patch_api.Rewriter.counter_spec ~entries ~blocks ~exits ())
    | "verify" ->
        W.Verify (Patch_api.Rewriter.counter_spec ~entries ~blocks ~exits ())
    | "profile" -> W.Profile { W.ps_period = Int64.of_int period }
    | "trace" ->
        W.Trace
          {
            W.ts_blocks = true;
            ts_calls = calls;
            ts_returns = returns;
            ts_mem = mem;
            ts_funcs = funcs;
          }
    | a ->
        Printf.eprintf "rvq: unknown action %s\n" a;
        exit 2
  in
  let ic, oc = connect socket in
  send oc { W.rq_id = 1L; rq_path = path; rq_action = action };
  let r = recv ic in
  print_endline (W.encode_response r);
  if r.W.rs_ok then 0 else 1

(* stdin NDJSON -> daemon; daemon responses -> stdout, as they come *)
let batch socket =
  let requests = ref [] in
  (try
     while true do
       let line = input_line stdin in
       if String.trim line <> "" then begin
         (* validate locally so a typo fails fast with a line number *)
         (try ignore (W.decode_request line)
          with W.Wire_error msg ->
            Printf.eprintf "rvq: request %d: %s\n"
              (List.length !requests + 1)
              msg;
            exit 2);
         requests := line :: !requests
       end
     done
   with End_of_file -> ());
  let requests = List.rev !requests in
  let n = List.length requests in
  if n = 0 then 0
  else begin
    let ic, oc = connect socket in
    List.iter
      (fun line ->
        output_string oc line;
        output_char oc '\n')
      requests;
    flush oc;
    let failures = ref 0 in
    for _ = 1 to n do
      let r = recv ic in
      print_endline (W.encode_response r);
      if not r.W.rs_ok then incr failures
    done;
    if !failures > 0 then 1 else 0
  end

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/rvserved.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"rvserved socket")

let control_cmd cname doc =
  Cmd.v (Cmd.info cname ~doc)
    Term.(const control $ socket_arg $ const cname)

let json_arg =
  Arg.(
    value & flag
    & info [ "json" ] ~doc:"print the raw NDJSON response line instead")

let watch_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "watch" ] ~docv:"SECS"
        ~doc:"re-scrape every SECS seconds until interrupted")

let metrics_cmd =
  Cmd.v
    (Cmd.info "metrics"
       ~doc:"scrape the daemon's metrics registry (table; --json for raw)")
    Term.(const metrics $ socket_arg $ json_arg $ watch_arg)

let action_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"ACTION" ~doc:"parse|lint|rewrite|verify|profile|trace")

let path_arg =
  Arg.(
    required & pos 1 (some string) None & info [] ~docv:"ELF" ~doc:"mutatee")

let strlist name doc = Arg.(value & opt_all string [] & info [ name ] ~doc)

let job_cmd =
  Cmd.v
    (Cmd.info "job" ~doc:"submit one job and print its response")
    Term.(
      const job $ socket_arg $ action_arg $ path_arg
      $ strlist "entries" "count entries of FUNC (rewrite/verify)"
      $ strlist "blocks" "count blocks of FUNC (rewrite/verify)"
      $ strlist "exits" "count exits of FUNC (rewrite/verify)"
      $ Arg.(value & opt int 10_000 & info [ "period" ] ~doc:"sample period (profile)")
      $ Arg.(value & flag & info [ "calls" ] ~doc:"trace call sites")
      $ Arg.(value & flag & info [ "returns" ] ~doc:"trace returns")
      $ Arg.(value & flag & info [ "mem" ] ~doc:"trace memory accesses")
      $ strlist "funcs" "restrict tracing to FUNC")

let batch_cmd =
  Cmd.v
    (Cmd.info "batch" ~doc:"stream NDJSON requests from stdin, responses to stdout")
    Term.(const batch $ socket_arg)

let cmd =
  Cmd.group
    (Cmd.info "rvq" ~doc:"client for the rvserved instrumentation service")
    [
      control_cmd "ping" "liveness check";
      metrics_cmd;
      control_cmd "flush" "invalidate the artifact cache";
      control_cmd "shutdown" "stop the daemon";
      job_cmd;
      batch_cmd;
    ]

let () = exit (Cmd.eval' cmd)
