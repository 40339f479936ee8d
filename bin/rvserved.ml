(* rvserved: the multi-tenant instrumentation daemon ("parse once,
   serve many").

   Listens on a Unix-domain socket for newline-delimited JSON job
   batches (parse / lint / rewrite / profile / trace), shards them
   across a pool of OCaml domains, and serves repeated work out of a
   content-addressed artifact cache keyed by the SHA-256 of the
   mutatee's bytes — two tenants submitting the same binary under
   different paths share one parse, one lint, one rewrite.

     dune exec bin/rvserved.exe -- --socket /tmp/rvserved.sock \
        --domains 4 --cache-dir /tmp/rvserved.cache

   Drive it with rvq (see bin/rvq.ml), or any client that speaks the
   wire format in lib/serve/wire.mli. *)

open Cmdliner

let main socket domains cache_entries cache_bytes cache_dir trace_out verbose =
  let cache =
    Serve_api.Cache.create ?disk_dir:cache_dir ~max_entries:cache_entries
      ~max_bytes:cache_bytes ()
  in
  let cfg =
    {
      Serve_api.Server.sc_socket = socket;
      sc_domains = domains;
      sc_verbose = verbose;
      sc_trace_out = trace_out;
    }
  in
  match Serve_api.Server.create ~cache cfg with
  | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "rvserved: cannot listen on %s: %s\n" socket
        (Unix.error_message e);
      2
  | srv ->
      Serve_api.Server.serve srv;
      0

let socket_arg =
  Arg.(
    value
    & opt string "/tmp/rvserved.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket to listen on")

let domains_arg =
  Arg.(
    value & opt int 2
    & info [ "domains" ] ~docv:"N" ~doc:"worker domains for job execution")

let cache_entries_arg =
  Arg.(
    value & opt int 256
    & info [ "cache-entries" ] ~docv:"N"
        ~doc:"artifact-cache entry bound (<=0 disables)")

let cache_bytes_arg =
  Arg.(
    value
    & opt int (64 * 1024 * 1024)
    & info [ "cache-bytes" ] ~docv:"BYTES"
        ~doc:"artifact-cache byte budget (<=0 disables)")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:"persist payload artifacts here (survives restarts)")

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "record spans and write them here on shutdown (Chrome \
           trace-event JSON, loadable in Perfetto; NDJSON event log if \
           FILE ends in .ndjson)")

let verbose_arg = Arg.(value & flag & info [ "verbose" ] ~doc:"log to stderr")

let cmd =
  Cmd.v
    (Cmd.info "rvserved"
       ~doc:"multi-tenant instrumentation service with an artifact cache")
    Term.(
      const main $ socket_arg $ domains_arg $ cache_entries_arg
      $ cache_bytes_arg $ cache_dir_arg $ trace_out_arg $ verbose_arg)

let () = exit (Cmd.eval' cmd)
