(* Sampling-accuracy cross-validation: run the same mutatee twice, once
   under the sampling profiler and once under TraceAPI's exhaustive
   instrumentation, and check that both attribute the most work to the
   same function.  This is the PerfAPI analogue of validating a
   statistical profiler against ground truth — the exhaustive trace *is*
   the ground truth here, at 1-2 orders of magnitude more overhead. *)

module An = Trace_api.Analyze

type t = {
  v_prof_hottest : string option; (* by exclusive samples *)
  v_coverage_hottest : string option; (* by traced block executions *)
  v_calltree_hottest : string option; (* by traced exclusive cycles *)
  v_n_samples : int;
  v_n_records : int;
  v_agree : bool; (* profiler matches both trace-based answers *)
}

(* Hottest function by block-execution count: Block records carry the
   owning function entry in [value] (see Tracer). *)
let hottest_by_coverage (binary : Core.binary)
    (records : Trace_api.Record.t list) : string option =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (r : Trace_api.Record.t) ->
      if r.Trace_api.Record.kind = Trace_api.Record.Block then
        let f = r.Trace_api.Record.value in
        Hashtbl.replace tbl f
          (1 + Option.value (Hashtbl.find_opt tbl f) ~default:0))
    records;
  Hashtbl.fold
    (fun f n best ->
      match best with
      | Some (_, bn) when bn >= n -> best
      | _ -> Some (f, n))
    tbl None
  |> Option.map (fun (f, _) ->
         Option.value
           (Trace_api.Symbolize.func_name binary.Core.cfg f)
           ~default:(Printf.sprintf "0x%Lx" f))

(* Hottest function by exclusive cycles from the reconstructed call
   tree: node duration minus the durations of its children, aggregated
   per callee. *)
let hottest_by_calltree (binary : Core.binary)
    (records : Trace_api.Record.t list) : string option =
  let tbl = Hashtbl.create 16 in
  let add f v =
    Hashtbl.replace tbl f
      (Int64.add v (Option.value (Hashtbl.find_opt tbl f) ~default:0L))
  in
  let rec go (n : An.call_node) =
    let dur = Int64.sub n.An.cn_exit n.An.cn_enter in
    let child_dur =
      List.fold_left
        (fun acc (c : An.call_node) ->
          Int64.add acc (Int64.sub c.An.cn_exit c.An.cn_enter))
        0L n.An.cn_children
    in
    add n.An.cn_callee (Int64.sub dur child_dur);
    List.iter go n.An.cn_children
  in
  List.iter go (An.call_tree records);
  Hashtbl.fold
    (fun f v best ->
      match best with
      | Some (_, bv) when Int64.compare bv v >= 0 -> best
      | _ -> Some (f, v))
    tbl None
  |> Option.map (fun (f, _) ->
         Option.value
           (Trace_api.Symbolize.func_name binary.Core.cfg f)
           ~default:(Printf.sprintf "0x%Lx" f))

(* Collect an exhaustive block+call+return trace of [binary]. *)
let trace_records ?funcs (binary : Core.binary) : Trace_api.Record.t list =
  let m = Core.create_mutator binary in
  let ring = Trace_api.Ring.create m.Core.rw ~capacity:1024 in
  let opts =
    { Trace_api.Tracer.blocks = true; calls = true; returns = true;
      mem = false }
  in
  let _ = Trace_api.Tracer.instrument m.Core.rw binary.Core.cfg ~ring ?funcs opts in
  let sink, _, _ = Trace_api.Sink.run ring (Core.rewrite m) in
  Trace_api.Sink.records sink

(* Run both collections on (fresh copies of) the mutatee and compare.
   [funcs] restricts the exhaustive trace's instrumented set (keeping
   its volume manageable); the profiler always sees the whole program. *)
let validate ?config ?funcs (binary : Core.binary) : t =
  let prof = Profiler.profile ?config binary in
  let records = trace_records ?funcs binary in
  let v_prof_hottest = Profiler.hottest prof in
  let v_coverage_hottest = hottest_by_coverage binary records in
  let v_calltree_hottest = hottest_by_calltree binary records in
  {
    v_prof_hottest;
    v_coverage_hottest;
    v_calltree_hottest;
    v_n_samples = prof.Profiler.r_n_samples;
    v_n_records = List.length records;
    v_agree =
      (match v_prof_hottest with
      | None -> false
      | Some h ->
          (v_coverage_hottest = None || v_coverage_hottest = Some h)
          && (v_calltree_hottest = None || v_calltree_hottest = Some h)
          && (v_coverage_hottest <> None || v_calltree_hottest <> None));
  }

let pp fmt (v : t) =
  let s = Option.value ~default:"?" in
  Format.fprintf fmt
    "profiler hottest: %s (%d samples)@\n\
     trace coverage hottest: %s, call-tree hottest: %s (%d records)@\n\
     agreement: %s"
    (s v.v_prof_hottest) v.v_n_samples
    (s v.v_coverage_hottest) (s v.v_calltree_hottest) v.v_n_records
    (if v.v_agree then "ok" else "MISMATCH")
