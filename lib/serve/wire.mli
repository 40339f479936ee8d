(** rvserved's wire protocol: newline-delimited JSON, one object per
    line.  parse/lint/rewrite/verify/profile/trace are cacheable jobs;
    ping/metrics/flush/shutdown are control actions.  Responses stream as
    jobs finish and may be out of order — correlate by id.  {!spec_key}
    canonicalizes job parameters for the artifact-cache key. *)

exception Wire_error of string

type profile_spec = { ps_period : int64 }

type trace_spec = {
  ts_blocks : bool;
  ts_calls : bool;
  ts_returns : bool;
  ts_mem : bool;
  ts_funcs : string list;  (** [[]] = whole binary *)
}

type action =
  | Parse
  | Lint
  | Rewrite of Patch_api.Rewriter.counter_spec
  | Verify of Patch_api.Rewriter.counter_spec
      (** instrument in memory with the same spec as {!Rewrite}, then
          symbolically prove each patch site equivalent *)
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
  rs_hash : string;  (** ELF content hash; [""] when not applicable *)
  rs_cached : bool;
  rs_elapsed_us : int64;
  rs_error : string;  (** [""] when ok *)
  rs_payload : string;  (** rendered JSON value; [""] = none *)
}

val is_control : action -> bool
val action_name : action -> string

(** Canonical, order-free spec fragment of the cache key. *)
val spec_key : action -> string

val encode_request : request -> string

(** Splices [rs_payload] verbatim (never reparsed) so warm responses
    are byte-identical to cold ones. *)
val encode_response : response -> string

(** @raise Wire_error on malformed input. *)
val decode_request : string -> request

val decode_response : string -> response

val ok_response :
  id:int64 ->
  hash:string ->
  cached:bool ->
  elapsed_us:int64 ->
  payload:string ->
  response

val error_response : id:int64 -> elapsed_us:int64 -> string -> response
