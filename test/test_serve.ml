(* rvserved: the artifact cache, the domain pool, job determinism
   (warm results must be byte-identical to cold ones), the wire
   protocol, and one end-to-end socket session.  Also the superblock
   code cache's residency bound, which rides the same PR. *)

module J = Dyn_util.Jsonw
module Sha = Dyn_util.Sha256
module Cache = Serve_api.Cache
module Pool = Serve_api.Pool
module Wire = Serve_api.Wire
module Jobs = Serve_api.Jobs

(* --- fixtures: minicc mutatees written to temp ELF files --- *)

let temp_dir =
  let d = Filename.temp_dir "rvserve_test_" "" in
  at_exit (fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote d)));
  d

let write_mutatee name src =
  let path = Filename.concat temp_dir name in
  if not (Sys.file_exists path) then
    Elfkit.Write.to_file path (Minicc.Driver.compile src).Minicc.Driver.image;
  path

let fib_elf = lazy (write_mutatee "fib.elf" Minicc.Programs.fib)
let calls_elf = lazy (write_mutatee "calls.elf" Minicc.Programs.calls)

(* same bytes as fib.elf under a different name *)
let fib_copy =
  lazy
    (let src = Lazy.force fib_elf in
     let dst = Filename.concat temp_dir "fib_copy.elf" in
     let ic = open_in_bin src in
     let n = in_channel_length ic in
     let b = really_input_string ic n in
     close_in ic;
     let oc = open_out_bin dst in
     output_string oc b;
     close_out oc;
     dst)

let job ?(id = 1L) path action = { Wire.rq_id = id; rq_path = path; rq_action = action }

(* --- sha256 --- *)

let test_sha_vectors () =
  Alcotest.(check string)
    "empty" "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha.hex_of_string "");
  Alcotest.(check string)
    "abc" "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha.hex_of_string "abc");
  Alcotest.(check string)
    "two blocks"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha.hex_of_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")

let test_sha_file_matches_bytes () =
  let p = Lazy.force fib_elf in
  let ic = open_in_bin p in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  Alcotest.(check string) "file = bytes" (Sha.hex_of_bytes b) (Sha.hex_of_file p)

(* --- jsonw --- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Int 42L);
        ("s", J.String "x\"y\\z\n\t");
        ("l", J.List [ J.Bool true; J.Null; J.Int (-7L) ]);
        ("o", J.Obj [ ("nested", J.List []) ]);
      ]
  in
  let s = J.to_string v in
  Alcotest.(check bool) "roundtrip" true (J.of_string s = v);
  (* compact output is stable: encode(decode(s)) = s *)
  Alcotest.(check string) "stable" s (J.to_string (J.of_string s))

let test_json_errors () =
  List.iter
    (fun bad ->
      match J.of_string bad with
      | exception J.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" bad)
    [
      "{";
      "[1,]";
      "\"unterminated";
      "{\"a\":1} trailing";
      "nul";
      "{\"id\":-,\"action\":\"ping\"}";
      "{\"id\":99999999999999999999}";
      "\"\\uzzzz\"";
      "txyz";
      "{\"a\":nope}";
      "1.";
      ".5";
      "1e";
      "--1";
      "-";
      "01";
    ]

(* a decimal keeps its lexeme through both writers and the parser *)
let test_json_decimals () =
  Alcotest.(check string) "fixed" "1.50" (J.to_string (J.fixed ~digits:2 1.5));
  List.iter
    (fun lexeme ->
      let v = J.Obj [ ("x", J.Num lexeme); ("l", J.List [ J.Num lexeme; J.Int 3L ]) ] in
      List.iter
        (fun s ->
          Alcotest.(check bool) ("roundtrip " ^ s) true (J.of_string s = v);
          Alcotest.(check string) ("stable " ^ s) (J.to_string v)
            (J.to_string (J.of_string s)))
        [ J.to_string v; J.to_string_pretty v ])
    [ "1.50"; "-0.25"; "1e-3"; "0.0"; "2E+10" ];
  Alcotest.(check bool)
    "integers stay Int" true
    (J.of_string "[0,-7,42]" = J.List [ J.Int 0L; J.Int (-7L); J.Int 42L ])

(* Every BENCH file's smoke and full variants carry the same key paths
   in the same order; a list is compared by its elements' keys, which
   must agree within the list.  The full files are committed; a smoke
   file exists once `make bench-smoke` has run, and is skipped before. *)
let test_bench_key_sets () =
  let rec keys path = function
    | J.Obj kvs ->
        List.concat_map (fun (k, v) -> (path ^ "/" ^ k) :: keys (path ^ "/" ^ k) v) kvs
    | J.List xs -> (
        match List.sort_uniq compare (List.map (keys (path ^ "[]")) xs) with
        | [] -> []
        | [ ks ] -> ks
        | _ -> Alcotest.failf "%s: list elements with different keys" path)
    | _ -> []
  in
  let read f = In_channel.with_open_text f In_channel.input_all |> J.of_string in
  List.iter
    (fun section ->
      let full = keys "" (read (Printf.sprintf "../BENCH_%s.json" section)) in
      Alcotest.(check bool) (section ^ " has keys") true (full <> []);
      let smoke = Printf.sprintf "../BENCH_%s.smoke.json" section in
      if Sys.file_exists smoke then
        Alcotest.(check (list string)) (section ^ ": smoke = full keys") full
          (keys "" (read smoke)))
    [ "trace"; "prof"; "sim"; "parse"; "served" ]

(* --- artifact cache --- *)

let payload s = Cache.Payload s

let test_cache_same_content_hit () =
  let c = Cache.create () in
  let r1 = Jobs.exec c (job (Lazy.force fib_elf) Wire.Lint) in
  let r2 = Jobs.exec c (job (Lazy.force fib_copy) Wire.Lint) in
  Alcotest.(check bool) "cold ok" true r1.Wire.rs_ok;
  Alcotest.(check bool) "cold is uncached" false r1.Wire.rs_cached;
  Alcotest.(check bool) "copy ok" true r2.Wire.rs_ok;
  Alcotest.(check bool) "copy hits despite path" true r2.Wire.rs_cached;
  Alcotest.(check string) "same content hash" r1.Wire.rs_hash r2.Wire.rs_hash;
  Alcotest.(check string) "same payload" r1.Wire.rs_payload r2.Wire.rs_payload

let test_cache_different_content_miss () =
  let c = Cache.create () in
  let r1 = Jobs.exec c (job (Lazy.force fib_elf) Wire.Lint) in
  let r2 = Jobs.exec c (job (Lazy.force calls_elf) Wire.Lint) in
  Alcotest.(check bool) "second is a miss" false r2.Wire.rs_cached;
  Alcotest.(check bool) "hashes differ" true (r1.Wire.rs_hash <> r2.Wire.rs_hash)

let test_cache_lru_order () =
  let c = Cache.create ~max_entries:3 () in
  let get k = ignore (Cache.get_or_compute c ~key:k (fun () -> payload k)) in
  get "k1";
  get "k2";
  get "k3";
  get "k4" (* evicts k1, the least recently used *);
  Alcotest.(check (list string)) "k1 evicted" [ "k4"; "k3"; "k2" ] (Cache.mem_keys c);
  get "k2" (* refresh k2 *);
  get "k5" (* now k3 is LRU *);
  Alcotest.(check (list string)) "k3 evicted" [ "k5"; "k2"; "k4" ] (Cache.mem_keys c)

let test_cache_byte_budget () =
  let c = Cache.create ~max_entries:0 ~max_bytes:400 () in
  (* each payload charges length + 64 overhead = 164 bytes *)
  let get k = ignore (Cache.get_or_compute c ~key:k (fun () -> payload (String.make 100 'x'))) in
  get "a";
  get "b";
  Alcotest.(check int) "two fit" 2 (Cache.mem_entries c);
  get "c";
  Alcotest.(check int) "third evicts oldest" 2 (Cache.mem_entries c);
  Alcotest.(check (list string)) "a evicted" [ "c"; "b" ] (Cache.mem_keys c)

let test_cache_flush_invalidates () =
  let c = Cache.create () in
  let computes = ref 0 in
  let get () =
    Cache.get_or_compute c ~key:"k" (fun () ->
        incr computes;
        payload "v")
  in
  let _, cached1 = get () in
  let _, cached2 = get () in
  Cache.flush c;
  let _, cached3 = get () in
  Alcotest.(check bool) "cold" false cached1;
  Alcotest.(check bool) "warm" true cached2;
  Alcotest.(check bool) "flushed = cold" false cached3;
  Alcotest.(check int) "computed twice" 2 !computes;
  Alcotest.(check int) "generation bumped" 1 (Cache.generation c)

let test_cache_singleflight () =
  let c = Cache.create () in
  let p = Pool.create ~domains:4 in
  let computes = Atomic.make 0 in
  let results =
    Pool.run_batch p
      (List.init 8 (fun _ () ->
           let v, _ =
             Cache.get_or_compute c ~key:"slow" (fun () ->
                 Atomic.incr computes;
                 Unix.sleepf 0.05;
                 payload "answer")
           in
           match v with Cache.Payload s -> s | Cache.Bin _ -> "?"))
  in
  Pool.shutdown p;
  Alcotest.(check int) "computed once" 1 (Atomic.get computes);
  List.iter
    (function
      | Ok s -> Alcotest.(check string) "shared result" "answer" s
      | Error e -> raise e)
    results

let test_cache_disk_persistence () =
  let dir = Filename.concat temp_dir "diskcache" in
  let computes = ref 0 in
  let compute () =
    incr computes;
    payload "{\"persisted\":true}"
  in
  let c1 = Cache.create ~disk_dir:dir () in
  let v1, cached1 = Cache.get_or_compute c1 ~key:"lint:deadbeef:" compute in
  (* a second cache over the same directory: fresh memory, warm disk *)
  let c2 = Cache.create ~disk_dir:dir () in
  let v2, cached2 = Cache.get_or_compute c2 ~key:"lint:deadbeef:" compute in
  Alcotest.(check bool) "first is cold" false cached1;
  Alcotest.(check bool) "restart hits disk" true cached2;
  Alcotest.(check int) "one compute across restarts" 1 !computes;
  Alcotest.(check bool) "same value" true (v1 = v2);
  (* flush wipes the disk layer too *)
  Cache.flush c2;
  let c3 = Cache.create ~disk_dir:dir () in
  let _, cached3 = Cache.get_or_compute c3 ~key:"lint:deadbeef:" compute in
  Alcotest.(check bool) "flushed disk is cold" false cached3

let test_statcache_memo () =
  let module Sc = Serve_api.Statcache in
  let sc = Sc.create () in
  let p = Filename.concat temp_dir "sc.bin" in
  let write s =
    let oc = open_out_bin p in
    output_string oc s;
    close_out oc
  in
  write "content one";
  let h1 = Sc.hash sc p in
  let h2 = Sc.hash sc p in
  Alcotest.(check string) "memoized" h1 h2;
  Alcotest.(check string) "correct hash" (Sha.hex_of_string "content one") h1;
  Alcotest.(check bool) "second was a hit" true (fst (Sc.counts sc) >= 1);
  (* changing the content (size changes -> fingerprint changes) rehashes *)
  write "content one plus";
  let h3 = Sc.hash sc p in
  Alcotest.(check string)
    "modified file rehashed" (Sha.hex_of_string "content one plus") h3;
  Alcotest.(check bool) "hash moved" true (h1 <> h3)

let test_statcache_exec_path () =
  let sc = Serve_api.Statcache.create () in
  let c = Cache.create () in
  let r1 = Jobs.exec ~stat:sc c (job (Lazy.force fib_elf) Wire.Lint) in
  let r2 = Jobs.exec ~stat:sc c (job (Lazy.force fib_elf) Wire.Lint) in
  Alcotest.(check bool) "warm via stat memo" true r2.Wire.rs_cached;
  Alcotest.(check string) "same payload" r1.Wire.rs_payload r2.Wire.rs_payload;
  Alcotest.(check bool) "stat hit recorded" true
    (fst (Serve_api.Statcache.counts sc) >= 1)

(* --- warm/cold differential: cached results byte-match cold ones --- *)

let differential action name =
  let path = Lazy.force calls_elf in
  let c1 = Cache.create () in
  let cold = Jobs.exec c1 (job path action) in
  let warm = Jobs.exec c1 (job path action) in
  (* and a completely fresh cache: determinism across instances *)
  let c2 = Cache.create () in
  let cold2 = Jobs.exec c2 (job path action) in
  Alcotest.(check bool) (name ^ " ok") true cold.Wire.rs_ok;
  Alcotest.(check bool) (name ^ " warm flagged") true warm.Wire.rs_cached;
  Alcotest.(check string) (name ^ " warm = cold") cold.Wire.rs_payload warm.Wire.rs_payload;
  Alcotest.(check string) (name ^ " cold = cold") cold.Wire.rs_payload cold2.Wire.rs_payload;
  (* the full wire line (minus timing) matches too *)
  let strip r = { r with Wire.rs_elapsed_us = 0L; rs_cached = false } in
  Alcotest.(check string)
    (name ^ " wire line")
    (Wire.encode_response (strip cold))
    (Wire.encode_response (strip warm))

let test_differential_parse () = differential Wire.Parse "parse"
let test_differential_lint () = differential Wire.Lint "lint"

let test_differential_rewrite () =
  differential
    (Wire.Rewrite
       (Patch_api.Rewriter.counter_spec ~entries:[ "main" ] ~blocks:[ "main" ] ()))
    "rewrite"

let test_differential_trace () =
  differential
    (Wire.Trace
       {
         Wire.ts_blocks = true;
         ts_calls = true;
         ts_returns = false;
         ts_mem = false;
         ts_funcs = [];
       })
    "trace"

(* parallel parse inside a job: the domains knob must not change a
   single payload byte — cold at N domains, the warm hit it seeds, and
   a cold single-domain parse in a fresh cache all byte-match *)
let test_differential_parallel_parse () =
  let path = Lazy.force calls_elf in
  let n = max 2 (Domain.recommended_domain_count ()) in
  let cn = Cache.create () in
  let cold_n = Jobs.exec ~domains:n cn (job path Wire.Parse) in
  let warm_n = Jobs.exec ~domains:n cn (job path Wire.Parse) in
  let c1 = Cache.create () in
  let cold_1 = Jobs.exec ~domains:1 c1 (job path Wire.Parse) in
  Alcotest.(check bool) "parallel cold ok" true cold_n.Wire.rs_ok;
  Alcotest.(check bool) "parallel cold uncached" false cold_n.Wire.rs_cached;
  Alcotest.(check bool) "parallel warm flagged" true warm_n.Wire.rs_cached;
  Alcotest.(check string)
    "warm = cold at N domains" cold_n.Wire.rs_payload warm_n.Wire.rs_payload;
  Alcotest.(check string)
    "N domains = 1 domain" cold_1.Wire.rs_payload cold_n.Wire.rs_payload

(* spec canonicalization: field order and list order don't split the key *)
let test_spec_key_canonical () =
  let a =
    Wire.spec_key
      (Wire.Rewrite (Patch_api.Rewriter.counter_spec ~entries:[ "b"; "a" ] ()))
  in
  let b =
    Wire.spec_key
      (Wire.Rewrite (Patch_api.Rewriter.counter_spec ~entries:[ "a"; "b"; "a" ] ()))
  in
  Alcotest.(check string) "sorted, deduped" a b

(* --- wire protocol --- *)

let test_wire_roundtrip () =
  let reqs =
    [
      job ~id:7L "/x/y.elf" Wire.Parse;
      job ~id:8L "/x/y.elf"
        (Wire.Rewrite (Patch_api.Rewriter.counter_spec ~entries:[ "main" ] ~exits:[ "f" ] ()));
      job ~id:9L "/x/y.elf" (Wire.Profile { Wire.ps_period = 5000L });
      job ~id:10L ""
        Wire.Shutdown;
    ]
  in
  List.iter
    (fun r ->
      let r' = Wire.decode_request (Wire.encode_request r) in
      Alcotest.(check bool) "request roundtrip" true (r = r'))
    reqs;
  let resp =
    Wire.ok_response ~id:3L ~hash:"abc" ~cached:true ~elapsed_us:17L
      ~payload:"{\"k\":[1,2]}"
  in
  let resp' = Wire.decode_response (Wire.encode_response resp) in
  Alcotest.(check bool) "response roundtrip" true (resp = resp')

let test_wire_rejects_garbage () =
  List.iter
    (fun bad ->
      match Wire.decode_request bad with
      | exception Wire.Wire_error _ -> ()
      | _ -> Alcotest.failf "accepted %S" bad)
    [
      "not json";
      "{\"id\":1}";
      "{\"id\":1,\"action\":\"warp\"}";
      "{\"id\":1,\"action\":\"lint\"}" (* no path *);
      "{\"id\":-,\"action\":\"ping\"}";
      "{\"id\":99999999999999999999,\"action\":\"ping\"}";
      "{\"id\":1.5,\"action\":\"ping\"}";
      "{\"id\":1,\"action\":\"lint\",\"path\":\"\\uzzzz\"}";
      "txyz";
    ]

(* --- pool --- *)

let test_pool_batch_order () =
  let p = Pool.create ~domains:3 in
  let results = Pool.run_batch p (List.init 20 (fun i () -> i * i)) in
  Pool.shutdown p;
  List.iteri
    (fun i r ->
      match r with
      | Ok v -> Alcotest.(check int) "in submission order" (i * i) v
      | Error e -> raise e)
    results

let test_pool_captures_exceptions () =
  let p = Pool.create ~domains:2 in
  let results =
    Pool.run_batch p [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
  in
  Pool.shutdown p;
  (match results with
  | [ Ok 1; Error (Failure _); Ok 3 ] -> ()
  | _ -> Alcotest.fail "batch should isolate the failing thunk");
  match Pool.submit p (fun () -> ()) with
  | exception Pool.Stopped -> ()
  | () -> Alcotest.fail "submit after shutdown should raise"

(* --- end to end over the socket --- *)

let test_server_session () =
  let sock = Filename.concat temp_dir "e2e.sock" in
  let srv =
    Serve_api.Server.create
      {
        Serve_api.Server.sc_socket = sock;
        sc_domains = 2;
        sc_parse_domains = 2;
        sc_verbose = false;
        sc_trace_out = None;
      }
  in
  let server_domain = Domain.spawn (fun () -> Serve_api.Server.serve srv) in
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  let send r =
    output_string oc (Wire.encode_request r);
    output_char oc '\n';
    flush oc
  in
  let fib = Lazy.force fib_elf and copy = Lazy.force fib_copy in
  send (job ~id:1L fib Wire.Lint);
  send (job ~id:2L copy Wire.Lint);
  send (job ~id:3L fib Wire.Parse);
  let responses = List.init 3 (fun _ -> Wire.decode_response (input_line ic)) in
  let by_id id = List.find (fun r -> r.Wire.rs_id = id) responses in
  List.iter (fun r -> Alcotest.(check bool) "ok" true r.Wire.rs_ok) responses;
  Alcotest.(check string)
    "copy shares the artifact" (by_id 1L).Wire.rs_hash (by_id 2L).Wire.rs_hash;
  Alcotest.(check string)
    "identical payload over the wire" (by_id 1L).Wire.rs_payload
    (by_id 2L).Wire.rs_payload;
  (* stats after all three job responses: the counter must have caught up *)
  send { Wire.rq_id = 4L; rq_path = ""; rq_action = Wire.Stats };
  let stats_resp = Wire.decode_response (input_line ic) in
  Alcotest.(check bool) "stats ok" true stats_resp.Wire.rs_ok;
  let stats = J.of_string stats_resp.Wire.rs_payload in
  Alcotest.(check bool)
    "stats counts jobs" true
    (J.to_int64 (J.member "jobs" stats) >= 3L);
  (* metrics scrape: registry rows with the cache/job instruments *)
  send { Wire.rq_id = 5L; rq_path = ""; rq_action = Wire.Metrics };
  let metrics_resp = Wire.decode_response (input_line ic) in
  Alcotest.(check bool) "metrics ok" true metrics_resp.Wire.rs_ok;
  let rows =
    J.to_list (J.member "metrics" (J.of_string metrics_resp.Wire.rs_payload))
  in
  let row name =
    List.find_opt (fun r -> J.to_str (J.member "name" r) = name) rows
  in
  (match row "serve.cache.hits" with
  | None -> Alcotest.fail "serve.cache.hits row missing"
  | Some r ->
      Alcotest.(check bool)
        "the fib copy hit the cache" true
        (J.to_int64 (J.member "value" r) >= 1L));
  (match row "serve.job.lint.latency_ns" with
  | None -> Alcotest.fail "lint latency histogram missing"
  | Some r ->
      Alcotest.(check string)
        "histogram row" "histogram"
        (J.to_str (J.member "type" r));
      Alcotest.(check bool)
        "both lint jobs observed" true
        (J.to_int64 (J.member "count" r) >= 2L));
  (* names arrive sorted: the scrape is deterministic for diffing *)
  let names = List.map (fun r -> J.to_str (J.member "name" r)) rows in
  Alcotest.(check bool)
    "metric names sorted" true
    (List.sort compare names = names);
  (* a malformed number gets an error response, and the connection
     still answers afterwards *)
  output_string oc "{\"id\":-,\"action\":\"ping\"}\n";
  flush oc;
  let bad = Wire.decode_response (input_line ic) in
  Alcotest.(check bool) "malformed line answered with an error" false bad.Wire.rs_ok;
  send { Wire.rq_id = 7L; rq_path = ""; rq_action = Wire.Ping };
  let pong = Wire.decode_response (input_line ic) in
  Alcotest.(check bool) "ping after the bad line" true pong.Wire.rs_ok;
  Alcotest.(check string) "pong" "\"pong\"" pong.Wire.rs_payload;
  send { Wire.rq_id = 6L; rq_path = ""; rq_action = Wire.Shutdown };
  let bye = Wire.decode_response (input_line ic) in
  Alcotest.(check bool) "bye ok" true bye.Wire.rs_ok;
  Unix.close fd;
  Domain.join server_domain;
  Alcotest.(check bool) "socket unlinked" false (Sys.file_exists sock)

(* --- superblock code-cache residency bound --- *)

let run_with_cap cap =
  let img = (Minicc.Driver.compile (Minicc.Programs.matmul ~n:6 ~reps:1)).Minicc.Driver.image in
  let p = Rvsim.Loader.load img in
  let m = p.Rvsim.Loader.machine in
  m.Rvsim.Machine.bb_cap <- cap;
  Rvsim.Bbcache.reset_stats ();
  let stop, _ = Rvsim.Loader.run p in
  (stop, m, Rvsim.Bbcache.stats.Rvsim.Bbcache.st_evicted)

let test_bbcache_cap_bounds_residency () =
  let stop_unbounded, m0, ev0 = run_with_cap 0 in
  let stop_capped, m1, ev1 = run_with_cap 4 in
  Alcotest.(check bool) "unbounded never evicts" true (ev0 = 0);
  Alcotest.(check bool) "capped run evicts" true (ev1 > 0);
  Alcotest.(check bool) "cap holds" true (m1.Rvsim.Machine.bb_live <= 4);
  Alcotest.(check bool)
    "uncapped grows past the cap" true
    (m0.Rvsim.Machine.bb_live > 4);
  (* eviction must not change program behaviour *)
  Alcotest.(check bool)
    "same exit" true
    (match (stop_unbounded, stop_capped) with
    | Rvsim.Machine.Exited a, Rvsim.Machine.Exited b -> a = b
    | a, b -> a = b)

let test_bbcache_flush_resets_residency () =
  let _, m, _ = run_with_cap 4 in
  Rvsim.Machine.flush_icache m;
  Alcotest.(check int) "flush zeroes bb_live" 0 m.Rvsim.Machine.bb_live

let () =
  Alcotest.run "serve"
    [
      ( "sha256",
        [
          Alcotest.test_case "fips vectors" `Quick test_sha_vectors;
          Alcotest.test_case "file = bytes" `Quick test_sha_file_matches_bytes;
        ] );
      ( "jsonw",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_errors;
          Alcotest.test_case "decimals" `Quick test_json_decimals;
          Alcotest.test_case "bench key sets" `Quick test_bench_key_sets;
        ] );
      ( "cache",
        [
          Alcotest.test_case "same content, different path" `Quick
            test_cache_same_content_hit;
          Alcotest.test_case "different content misses" `Quick
            test_cache_different_content_miss;
          Alcotest.test_case "lru eviction order" `Quick test_cache_lru_order;
          Alcotest.test_case "byte budget" `Quick test_cache_byte_budget;
          Alcotest.test_case "flush invalidates" `Quick test_cache_flush_invalidates;
          Alcotest.test_case "singleflight" `Quick test_cache_singleflight;
          Alcotest.test_case "disk persistence" `Quick test_cache_disk_persistence;
          Alcotest.test_case "stat memo" `Quick test_statcache_memo;
          Alcotest.test_case "stat memo in exec" `Quick test_statcache_exec_path;
        ] );
      ( "differential",
        [
          Alcotest.test_case "parse warm = cold" `Quick test_differential_parse;
          Alcotest.test_case "lint warm = cold" `Quick test_differential_lint;
          Alcotest.test_case "rewrite warm = cold" `Quick test_differential_rewrite;
          Alcotest.test_case "trace warm = cold" `Quick test_differential_trace;
          Alcotest.test_case "parallel parse warm = cold" `Quick
            test_differential_parallel_parse;
          Alcotest.test_case "spec key canonical" `Quick test_spec_key_canonical;
        ] );
      ( "wire",
        [
          Alcotest.test_case "roundtrip" `Quick test_wire_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_wire_rejects_garbage;
        ] );
      ( "pool",
        [
          Alcotest.test_case "batch order" `Quick test_pool_batch_order;
          Alcotest.test_case "captures exceptions" `Quick
            test_pool_captures_exceptions;
        ] );
      ( "server", [ Alcotest.test_case "e2e session" `Quick test_server_session ] );
      ( "bbcache",
        [
          Alcotest.test_case "cap bounds residency" `Quick
            test_bbcache_cap_bounds_residency;
          Alcotest.test_case "flush resets" `Quick test_bbcache_flush_resets_residency;
        ] );
    ]
