(* Memory-access tracing with TraceAPI, in the spirit of MAMBO-V's
   side-channel workload: record the effective address of every load
   and store in the hot function, stream the records to a host-side
   sink through the ring buffer, and print an address histogram —
   distinguishing (bucketed) which memory the kernel actually touched.

     dune exec examples/memtrace.exe *)

let mutatee_source = Minicc.Programs.matmul ~n:8 ~reps:1

let () =
  print_endline "== memtrace: effective addresses touched by multiply ==";
  let compiled = Minicc.Driver.compile mutatee_source in
  let binary = Core.open_image compiled.Minicc.Driver.image in
  let m = Core.create_mutator binary in
  let ring = Trace_api.Ring.create m.Core.rw ~capacity:512 in
  let n_points =
    Trace_api.Tracer.instrument m.Core.rw binary.Core.cfg ~ring
      ~funcs:[ "multiply" ] Trace_api.Tracer.mem_only
  in
  Printf.printf "planted %d memory trace points in multiply\n" n_points;
  let sink, stop, _ = Trace_api.Sink.run ring (Core.rewrite m) in
  Format.printf "mutatee exit: %a\n" Rvsim.Machine.pp_stop stop;
  let records = Trace_api.Sink.records sink in
  Printf.printf "collected %d records (%d ring flushes)\n"
    (List.length records)
    (Trace_api.Sink.flushes sink);
  Format.printf "%a"
    (Trace_api.Analyze.pp_mem_histogram ~bucket:256)
    records
