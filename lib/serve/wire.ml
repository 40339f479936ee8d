(* rvserved's wire protocol: newline-delimited JSON over a Unix-domain
   socket, one object per line in each direction.

   Request:  {"id":N,"action":"parse","path":"/bin/x", ...spec fields}
   Response: {"id":N,"ok":true,"hash":"<sha256>","cached":false,
              "elapsed_us":1234,"payload":{...}}
          or {"id":N,"ok":false,"error":"..."}

   Actions parse/lint/rewrite/verify/profile/trace are jobs (sharded across
   the pool, results cacheable); ping/metrics/flush/shutdown are
   control actions answered inline by the connection thread.  Responses stream
   as jobs finish, so they may arrive out of submission order: clients
   correlate by [id].

   [spec_key] canonicalizes a job's parameters into the cache key, so
   two requests that differ only in field order or list order share an
   artifact. *)

module J = Dyn_util.Jsonw

exception Wire_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Wire_error s)) fmt

type profile_spec = { ps_period : int64 }

type trace_spec = {
  ts_blocks : bool;
  ts_calls : bool;
  ts_returns : bool;
  ts_mem : bool;
  ts_funcs : string list; (* [] = whole binary *)
}

type action =
  | Parse
  | Lint
  | Rewrite of Patch_api.Rewriter.counter_spec
  | Verify of Patch_api.Rewriter.counter_spec
  | Profile of profile_spec
  | Trace of trace_spec
  | Ping
  | Metrics
  | Flush
  | Shutdown

type request = { rq_id : int64; rq_path : string; rq_action : action }

type response = {
  rs_id : int64;
  rs_ok : bool;
  rs_hash : string; (* "" when not applicable *)
  rs_cached : bool;
  rs_elapsed_us : int64;
  rs_error : string; (* "" when ok *)
  rs_payload : string; (* rendered JSON value, "" = none *)
}

let is_control = function
  | Ping | Metrics | Flush | Shutdown -> true
  | Parse | Lint | Rewrite _ | Verify _ | Profile _ | Trace _ -> false

let action_name = function
  | Parse -> "parse"
  | Lint -> "lint"
  | Rewrite _ -> "rewrite"
  | Verify _ -> "verify"
  | Profile _ -> "profile"
  | Trace _ -> "trace"
  | Ping -> "ping"
  | Metrics -> "metrics"
  | Flush -> "flush"
  | Shutdown -> "shutdown"

(* Canonical spec fragment for the cache key (sorted, order-free). *)
let spec_key = function
  | Parse | Lint | Ping | Metrics | Flush | Shutdown -> ""
  | Rewrite cs | Verify cs -> Patch_api.Rewriter.spec_key cs
  | Profile p -> Printf.sprintf "period=%Ld" p.ps_period
  | Trace ts ->
      Printf.sprintf "b=%b;c=%b;r=%b;m=%b;f=%s" ts.ts_blocks ts.ts_calls
        ts.ts_returns ts.ts_mem
        (String.concat "," (List.sort_uniq compare ts.ts_funcs))

(* --- encoding --- *)

let strs l = J.List (List.map (fun s -> J.String s) l)

let request_fields (r : request) : (string * J.t) list =
  let base =
    [
      ("id", J.Int r.rq_id);
      ("action", J.String (action_name r.rq_action));
    ]
  in
  let path =
    if is_control r.rq_action then [] else [ ("path", J.String r.rq_path) ]
  in
  let spec =
    match r.rq_action with
    | Parse | Lint | Ping | Metrics | Flush | Shutdown -> []
    | Rewrite cs | Verify cs ->
        [
          ("entries", strs cs.Patch_api.Rewriter.cs_entries);
          ("blocks", strs cs.Patch_api.Rewriter.cs_blocks);
          ("exits", strs cs.Patch_api.Rewriter.cs_exits);
        ]
    | Profile p -> [ ("period", J.Int p.ps_period) ]
    | Trace ts ->
        [
          ("blocks", J.Bool ts.ts_blocks);
          ("calls", J.Bool ts.ts_calls);
          ("returns", J.Bool ts.ts_returns);
          ("mem", J.Bool ts.ts_mem);
          ("funcs", strs ts.ts_funcs);
        ]
  in
  base @ path @ spec

let encode_request r = J.to_string (J.Obj (request_fields r))

(* Responses are assembled with a Buffer so the cached payload string
   is spliced verbatim — the warm/cold byte-equality contract depends
   on never reparsing it. *)
let encode_response (r : response) : string =
  let b = Buffer.create (128 + String.length r.rs_payload) in
  Buffer.add_string b (Printf.sprintf "{\"id\":%Ld,\"ok\":%b" r.rs_id r.rs_ok);
  if r.rs_hash <> "" then begin
    Buffer.add_string b ",\"hash\":";
    Buffer.add_string b (J.to_string (J.String r.rs_hash));
    Buffer.add_string b (Printf.sprintf ",\"cached\":%b" r.rs_cached)
  end;
  Buffer.add_string b (Printf.sprintf ",\"elapsed_us\":%Ld" r.rs_elapsed_us);
  if r.rs_error <> "" then begin
    Buffer.add_string b ",\"error\":";
    Buffer.add_string b (J.to_string (J.String r.rs_error))
  end;
  if r.rs_payload <> "" then begin
    Buffer.add_string b ",\"payload\":";
    Buffer.add_string b r.rs_payload
  end;
  Buffer.add_char b '}';
  Buffer.contents b

(* --- decoding --- *)

let get_str obj name =
  match J.member name obj with
  | J.String s -> s
  | J.Null -> fail "missing field %s" name
  | _ -> fail "field %s: expected string" name

let opt_bool obj name ~default =
  match J.member name obj with
  | J.Bool b -> b
  | J.Null -> default
  | _ -> fail "field %s: expected bool" name

let opt_int64 obj name ~default =
  match J.member name obj with
  | J.Int i -> i
  | J.Null -> default
  | _ -> fail "field %s: expected int" name

let opt_strs obj name =
  match J.member name obj with
  | J.Null -> []
  | J.List l ->
      List.map
        (function J.String s -> s | _ -> fail "field %s: expected strings" name)
        l
  | _ -> fail "field %s: expected list" name

let decode_request (line : string) : request =
  let obj =
    try J.of_string line
    with J.Parse_error msg -> fail "bad json: %s" msg
  in
  let id = opt_int64 obj "id" ~default:(-1L) in
  let action = get_str obj "action" in
  let path () = get_str obj "path" in
  match action with
  | "ping" -> { rq_id = id; rq_path = ""; rq_action = Ping }
  | "metrics" -> { rq_id = id; rq_path = ""; rq_action = Metrics }
  | "flush" -> { rq_id = id; rq_path = ""; rq_action = Flush }
  | "shutdown" -> { rq_id = id; rq_path = ""; rq_action = Shutdown }
  | "parse" -> { rq_id = id; rq_path = path (); rq_action = Parse }
  | "lint" -> { rq_id = id; rq_path = path (); rq_action = Lint }
  | "rewrite" | "verify" ->
      let cs =
        Patch_api.Rewriter.counter_spec
          ~entries:(opt_strs obj "entries")
          ~blocks:(opt_strs obj "blocks")
          ~exits:(opt_strs obj "exits") ()
      in
      let act = if action = "verify" then Verify cs else Rewrite cs in
      { rq_id = id; rq_path = path (); rq_action = act }
  | "profile" ->
      let p = { ps_period = opt_int64 obj "period" ~default:10_000L } in
      { rq_id = id; rq_path = path (); rq_action = Profile p }
  | "trace" ->
      let ts =
        {
          ts_blocks = opt_bool obj "blocks" ~default:true;
          ts_calls = opt_bool obj "calls" ~default:false;
          ts_returns = opt_bool obj "returns" ~default:false;
          ts_mem = opt_bool obj "mem" ~default:false;
          ts_funcs = opt_strs obj "funcs";
        }
      in
      { rq_id = id; rq_path = path (); rq_action = Trace ts }
  | a -> fail "unknown action %S" a

let decode_response (line : string) : response =
  let obj =
    try J.of_string line
    with J.Parse_error msg -> fail "bad json: %s" msg
  in
  let get_bool name ~default = opt_bool obj name ~default in
  {
    rs_id = opt_int64 obj "id" ~default:(-1L);
    rs_ok = get_bool "ok" ~default:false;
    rs_hash = (match J.member "hash" obj with J.String s -> s | _ -> "");
    rs_cached = get_bool "cached" ~default:false;
    rs_elapsed_us = opt_int64 obj "elapsed_us" ~default:0L;
    rs_error = (match J.member "error" obj with J.String s -> s | _ -> "");
    rs_payload =
      (match J.member "payload" obj with J.Null -> "" | v -> J.to_string v);
  }

let ok_response ~id ~hash ~cached ~elapsed_us ~payload =
  {
    rs_id = id;
    rs_ok = true;
    rs_hash = hash;
    rs_cached = cached;
    rs_elapsed_us = elapsed_us;
    rs_error = "";
    rs_payload = payload;
  }

let error_response ~id ~elapsed_us msg =
  {
    rs_id = id;
    rs_ok = false;
    rs_hash = "";
    rs_cached = false;
    rs_elapsed_us = elapsed_us;
    rs_error = msg;
    rs_payload = "";
  }
