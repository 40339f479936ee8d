(* Job execution for rvserved: turn a wire request into a wire
   response, with every expensive artifact flowing through the
   content-addressed cache.

   Two cache levels per job:
     bin:<hash>:            the parsed Core.binary (symtab + CFG),
                            shared by every action on that ELF
     <action>:<hash>:<spec> the rendered JSON payload of that job

   so a warm lint costs one SHA-256 of the file plus two lookups, and a
   cold trace still reuses the parse that an earlier lint paid for.

   Payloads must be DETERMINISTIC — functions and blocks sorted, the
   simulator's cycle counts reproducible — because the differential
   test asserts warm payload bytes equal cold payload bytes, and the
   disk layer replays them across daemon restarts.  That is also why
   payloads carry no wall-clock data: timing lives in the response
   envelope ([rs_elapsed_us]), outside the cached region.

   Cached [Core.binary] values are shared read-only across domains:
   every consumer here builds fresh per-call state (Rewriter.t,
   machines, rings) around them.  Linter.lint, Summary.to_json and
   dead_entry_summary only read the symtab/CFG. *)

module J = Dyn_util.Jsonw
module Obs = Dyn_obs.Registry
module Trace = Dyn_obs.Trace

let now_us () = Int64.of_float (Unix.gettimeofday () *. 1e6)

(* Job kinds are a closed set: each kind's latency histogram and its
   [job:<kind>] span name are built once, here.  A histogram's count is
   the jobs of that kind; the jobs that succeeded are their sum minus
   [serve.jobs.err]. *)
let m_err = Obs.counter "serve.jobs.err"

let kinds =
  List.map
    (fun k -> (k, (Obs.histogram ("serve.job." ^ k ^ ".latency_ns"), "job:" ^ k)))
    [ "parse"; "lint"; "rewrite"; "verify"; "profile"; "trace" ]

let read_file path : Bytes.t =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

(* The shared parse artifact.  A cold parse runs on the calling pool
   domain alone: the pool is the daemon's one level of parallelism. *)
let binary_for (cache : Cache.t) ~(hash : string) (bytes : Bytes.t) :
    Core.binary =
  let v, _ =
    Cache.get_or_compute cache ~key:("bin:" ^ hash) (fun () ->
        Cache.Bin (Core.open_bytes bytes))
  in
  match v with
  | Cache.Bin b -> b
  | Cache.Payload _ -> failwith "cache kind confusion: bin slot holds payload"

(* --- payload builders (pure: binary in, JSON value out; rendered to
   the cached byte string by exec's serialize stage) --- *)

let parse_payload (b : Core.binary) : J.t =
  let summary = Parse_api.Summary.to_json b.Core.symtab b.Core.cfg in
  let dataflow =
    Parse_api.Summary.sorted_functions b.Core.cfg
    |> List.map (fun (f : Parse_api.Cfg.func) ->
           let dead = Dataflow_api.Liveness.dead_entry_summary b.Core.cfg f in
           let total = List.fold_left (fun a (_, n) -> a + n) 0 dead in
           J.Obj
             [
               ("func", J.String f.Parse_api.Cfg.f_name);
               ("blocks", J.Int (Int64.of_int (List.length dead)));
               ("dead_regs_total", J.Int (Int64.of_int total));
             ])
  in
  J.Obj [ ("summary", summary); ("dataflow", J.List dataflow) ]

let lint_payload (b : Core.binary) : J.t =
  let ds = Lint_api.Diag.sort (Lint_api.Linter.lint b.Core.symtab b.Core.cfg) in
  J.Obj
    [
      ("count", J.Int (Int64.of_int (List.length ds)));
      ("errors", J.Int (Int64.of_int (Lint_api.Diag.n_errors ds)));
      ("diags", Lint_api.Diag.list_to_json ds);
    ]

let rewrite_payload (b : Core.binary) (cs : Patch_api.Rewriter.counter_spec) :
    J.t =
  let img, manifest, stats =
    Patch_api.Rewriter.instrument_counters b.Core.symtab b.Core.cfg cs
  in
  let out_bytes = Elfkit.Write.to_bytes img in
  let strategies =
    List.sort compare stats.Patch_api.Rewriter.strategies
    |> List.map (fun (addr, s) ->
           J.Obj
             [
               ("addr", J.String (Printf.sprintf "0x%Lx" addr));
               ("strategy", J.String (Patch_api.Rewriter.strategy_name s));
             ])
  in
  J.Obj
    [
      ("points", J.Int (Int64.of_int stats.Patch_api.Rewriter.n_points));
      ( "dead_alloc",
        J.Int (Int64.of_int stats.Patch_api.Rewriter.n_dead_alloc) );
      ("spilled", J.Int (Int64.of_int stats.Patch_api.Rewriter.n_spilled));
      ("springboards", J.List strategies);
      ("out_sha256", J.String (Dyn_util.Sha256.hex_of_bytes out_bytes));
      ("out_size", J.Int (Int64.of_int (Bytes.length out_bytes)));
      ( "manifest",
        match manifest with
        | None -> J.Null
        | Some m -> Patch_api.Manifest.to_json m );
    ]

(* The symbolic tier as a job: instrument in memory with the same
   counter spec as a rewrite job, then prove every patch site of the
   resulting manifest.  Deterministic because the rewrite is and the
   checker's verdicts/path counts depend only on the images. *)
let verify_payload (b : Core.binary) (cs : Patch_api.Rewriter.counter_spec) :
    J.t =
  let img, manifest, stats =
    Patch_api.Rewriter.instrument_counters b.Core.symtab b.Core.cfg cs
  in
  match manifest with
  | None ->
      J.Obj
        [
          ("points", J.Int (Int64.of_int stats.Patch_api.Rewriter.n_points));
          ("report", J.Null);
        ]
  | Some m ->
      let r =
        Verify_api.Check.check_manifest ~orig:b.Core.symtab b.Core.cfg
          ~manifest:m ~rewritten:img
      in
      J.Obj
        [
          ("points", J.Int (Int64.of_int stats.Patch_api.Rewriter.n_points));
          ("report", Verify_api.Check.to_json r);
        ]

let profile_payload (b : Core.binary) (ps : Wire.profile_spec) : J.t =
  let config =
    {
      Perf_api.Profiler.default_config with
      Perf_api.Profiler.period = ps.Wire.ps_period;
      keep_samples = false;
    }
  in
  let r = Perf_api.Profiler.profile ~config b in
  let flat =
    Perf_api.Cct.flat r.Perf_api.Profiler.r_cct
    |> List.map (fun (row : Perf_api.Cct.flat_row) ->
           J.Obj
             [
               ("name", J.String row.Perf_api.Cct.fl_name);
               ("excl", J.Int (Int64.of_int row.Perf_api.Cct.fl_excl));
               ("incl", J.Int (Int64.of_int row.Perf_api.Cct.fl_incl));
               ("cycles", J.Int row.Perf_api.Cct.fl_cycles);
             ])
  in
  J.Obj
    [
      ("samples", J.Int (Int64.of_int r.Perf_api.Profiler.r_n_samples));
      ("cycles", J.Int r.Perf_api.Profiler.r_elapsed_cycles);
      ("instret", J.Int r.Perf_api.Profiler.r_instret);
      ( "stop",
        J.String
          (Format.asprintf "%a" Rvsim.Machine.pp_stop
             r.Perf_api.Profiler.r_stop) );
      ("flat", J.List flat);
    ]

let trace_payload (b : Core.binary) (ts : Wire.trace_spec) : J.t =
  let rw = Patch_api.Rewriter.create b.Core.symtab b.Core.cfg in
  let ring = Trace_api.Ring.create rw ~capacity:1024 in
  let opts =
    {
      Trace_api.Tracer.blocks = ts.Wire.ts_blocks;
      calls = ts.Wire.ts_calls;
      returns = ts.Wire.ts_returns;
      mem = ts.Wire.ts_mem;
    }
  in
  let funcs = match ts.Wire.ts_funcs with [] -> None | fs -> Some fs in
  let n_points = Trace_api.Tracer.instrument rw b.Core.cfg ~ring ?funcs opts in
  let sink, stop, _stdout =
    Trace_api.Sink.run ring (Patch_api.Rewriter.rewrite rw)
  in
  let records = Trace_api.Sink.records sink in
  let count k =
    List.length (List.filter (fun (r : Trace_api.Record.t) -> r.kind = k) records)
  in
  J.Obj
    [
      ("points", J.Int (Int64.of_int n_points));
      ("records", J.Int (Int64.of_int (List.length records)));
      ("flushes", J.Int (Int64.of_int (Trace_api.Sink.flushes sink)));
      ("blocks", J.Int (Int64.of_int (count Trace_api.Record.Block)));
      ("calls", J.Int (Int64.of_int (count Trace_api.Record.Call)));
      ("rets", J.Int (Int64.of_int (count Trace_api.Record.Ret)));
      ( "mem",
        J.Int
          (Int64.of_int
             (count Trace_api.Record.Mem_read
             + count Trace_api.Record.Mem_write)) );
      ("stop", J.String (Format.asprintf "%a" Rvsim.Machine.pp_stop stop));
    ]

let payload_json (b : Core.binary) (action : Wire.action) : J.t =
  match action with
  | Wire.Parse -> parse_payload b
  | Wire.Lint -> lint_payload b
  | Wire.Rewrite cs -> rewrite_payload b cs
  | Wire.Verify cs -> verify_payload b cs
  | Wire.Profile ps -> profile_payload b ps
  | Wire.Trace ts -> trace_payload b ts
  | Wire.Ping | Wire.Metrics | Wire.Flush | Wire.Shutdown ->
      invalid_arg "payload_for: control action"

let payload_for (b : Core.binary) (action : Wire.action) : string =
  J.to_string (payload_json b action)

(* Execute one job request end to end.  Control actions are the
   server's business, not ours.  Never raises: failures become error
   responses.

   With [stat], the mutatee's content hash comes from the stat-keyed
   memo, so a warm request touches no file bytes at all: stat(2), two
   cache probes, done.  The file is only read inside the compute
   closure — i.e. on a payload miss. *)
let exec ?stat (cache : Cache.t) (req : Wire.request) : Wire.response =
  let t0 = now_us () in
  let t0_ns = Trace.now_ns () in
  let elapsed () = Int64.sub (now_us ()) t0 in
  if Wire.is_control req.Wire.rq_action then
    Wire.error_response ~id:req.Wire.rq_id ~elapsed_us:(elapsed ())
      (Printf.sprintf "%s is a control action, not a job"
         (Wire.action_name req.Wire.rq_action))
  else begin
    let kind = Wire.action_name req.Wire.rq_action in
    let hist, span = List.assoc kind kinds in
    let finish resp =
      Obs.observe hist (Trace.now_ns () - t0_ns);
      if not resp.Wire.rs_ok then Obs.incr m_err;
      resp
    in
    (* the span's id argument is built only when a trace records it *)
    let args =
      if Trace.is_enabled () then [ ("id", Int64.to_string req.Wire.rq_id) ]
      else []
    in
    finish
    @@ Trace.with_span span ~args
         (fun () ->
           try
             let v, cached, hash =
               Trace.with_span "cache-lookup" (fun () ->
                   let hash =
                     match stat with
                     | Some sc -> Statcache.hash sc req.Wire.rq_path
                     | None -> Dyn_util.Sha256.hex_of_file req.Wire.rq_path
                   in
                   let key =
                     Printf.sprintf "%s:%s:%s" kind hash
                       (Wire.spec_key req.Wire.rq_action)
                   in
                   let v, cached =
                     Cache.get_or_compute cache ~key (fun () ->
                         let j =
                           Trace.with_span "execute" (fun () ->
                               let bytes = read_file req.Wire.rq_path in
                               let b = binary_for cache ~hash bytes in
                               payload_json b req.Wire.rq_action)
                         in
                         Cache.Payload
                           (Trace.with_span "serialize" (fun () -> J.to_string j)))
                   in
                   (v, cached, hash))
             in
             let payload =
               match v with
               | Cache.Payload s -> s
               | Cache.Bin _ ->
                   failwith "cache kind confusion: payload slot holds bin"
             in
             Wire.ok_response ~id:req.Wire.rq_id ~hash ~cached
               ~elapsed_us:(elapsed ()) ~payload
           with
           | Sys_error msg ->
               Wire.error_response ~id:req.Wire.rq_id ~elapsed_us:(elapsed ())
                 msg
           | Unix.Unix_error (e, _, arg) ->
               Wire.error_response ~id:req.Wire.rq_id ~elapsed_us:(elapsed ())
                 (Printf.sprintf "%s: %s" arg (Unix.error_message e))
           | e ->
               Wire.error_response ~id:req.Wire.rq_id ~elapsed_us:(elapsed ())
                 (Printexc.to_string e))
  end
