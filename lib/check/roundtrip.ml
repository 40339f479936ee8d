(* The rewrite round-trip checker: instrumentation must be invisible.

   A mutatee is compiled, run clean under rvsim, then instrumented with
   an effect-free snippet (a counter increment into the patch data area)
   at every basic block of every parsed function, rewritten through
   Patch.Rewriter, and run again.  The two runs must agree on

     - the stop reason (exit code, fault, ...);
     - everything written to stdout;
     - the final contents of the mutatee's own writable data sections.

   Only the patch area (trampolines, springboards, instrumentation
   variables) may differ — that is the paper's transparency contract for
   binary rewriting.  The probe counter is also read back and must be
   nonzero, so a silently-dropped instrumentation pass cannot pass. *)

type result = {
  rt_name : string;
  rt_points : int; (* block points instrumented *)
  rt_counter : int64; (* probe count observed in the rewritten run *)
  rt_diffs : string list; (* divergences; empty = transparent *)
  rt_notes : string list; (* expected differences (e.g. observed time) *)
}

(* A mutatee that reads the cycle CSR (clock_ns) observes architecturally
   visible state that instrumentation legitimately changes — on real
   hardware just as much as under rvsim.  For those, stdout is allowed
   to differ and transparency rests on the stop reason and the data
   sections (matmul's C array lives in .data and is compared in full). *)
let reads_clock name = name = "matmul"

(* Writable allocatable sections of the original image: the state the
   mutatee can legitimately leave behind. *)
let data_sections (img : Elfkit.Types.image) =
  List.filter
    (fun (s : Elfkit.Types.section) ->
      s.Elfkit.Types.s_size > 0
      && s.Elfkit.Types.s_flags land Elfkit.Types.shf_write <> 0
      && s.Elfkit.Types.s_flags land Elfkit.Types.shf_alloc <> 0)
    img.Elfkit.Types.sections

let read_region mem base size =
  Bytes.init size (fun i ->
      Char.chr (Rvsim.Mem.read8 mem (Int64.add base (Int64.of_int i))))

let check ?(max_steps = 20_000_000) ?(reads_clock = false) ~name (src : string)
    : result =
  let compiled = Minicc.Driver.compile src in
  let p_o = Rvsim.Loader.load compiled.Minicc.Driver.image in
  let stop_o, out_o = Rvsim.Loader.run ~max_steps p_o in
  let binary = Core.open_image compiled.Minicc.Driver.image in
  let m = Core.create_mutator binary in
  let probe = Core.create_counter m "rvcheck_probe" in
  let points =
    List.concat_map
      (fun (f : Parse_api.Cfg.func) -> Core.at_blocks binary f.Parse_api.Cfg.f_name)
      (Core.functions binary)
  in
  List.iter (fun pt -> Core.insert m pt [ Codegen_api.Snippet.incr probe ]) points;
  let img2 = Core.rewrite m in
  let p_i = Rvsim.Loader.load img2 in
  let stop_i, out_i = Rvsim.Loader.run ~max_steps p_i in
  let counter =
    Rvsim.Mem.read64 p_i.Rvsim.Loader.machine.Rvsim.Machine.mem
      probe.Codegen_api.Snippet.v_addr
  in
  let diffs = ref [] and notes = ref [] in
  let push fmt = Printf.ksprintf (fun s -> diffs := s :: !diffs) fmt in
  let note fmt = Printf.ksprintf (fun s -> notes := s :: !notes) fmt in
  let stop_str s = Format.asprintf "%a" Rvsim.Machine.pp_stop s in
  if stop_o <> stop_i then
    push "stop differs: original %s, instrumented %s" (stop_str stop_o)
      (stop_str stop_i);
  if out_o <> out_i then
    if reads_clock then
      note "stdout differs as expected (mutatee observes the cycle CSR): %S vs %S"
        (String.trim out_o) (String.trim out_i)
    else push "stdout differs: original %S, instrumented %S" out_o out_i;
  List.iter
    (fun (s : Elfkit.Types.section) ->
      let a =
        read_region p_o.Rvsim.Loader.machine.Rvsim.Machine.mem
          s.Elfkit.Types.s_addr s.Elfkit.Types.s_size
      and b =
        read_region p_i.Rvsim.Loader.machine.Rvsim.Machine.mem
          s.Elfkit.Types.s_addr s.Elfkit.Types.s_size
      in
      if not (Bytes.equal a b) then begin
        let i = ref 0 in
        while Bytes.get a !i = Bytes.get b !i do incr i done;
        push "%s differs at 0x%Lx: original %02x, instrumented %02x"
          s.Elfkit.Types.s_name
          (Int64.add s.Elfkit.Types.s_addr (Int64.of_int !i))
          (Char.code (Bytes.get a !i))
          (Char.code (Bytes.get b !i))
      end)
    (data_sections compiled.Minicc.Driver.image);
  if counter = 0L && points <> [] then
    push "probe counter is zero: instrumentation never executed";
  {
    rt_name = name;
    rt_points = List.length points;
    rt_counter = counter;
    rt_diffs = List.rev !diffs;
    rt_notes = List.rev !notes;
  }

let check_builtin ?max_steps name =
  match List.assoc_opt name Minicc.Programs.builtins with
  | Some src ->
      check ?max_steps ~reads_clock:(reads_clock name) ~name (Lazy.force src)
  | None -> invalid_arg ("Roundtrip.check_builtin: unknown mutatee " ^ name)

let pp_result fmt (r : result) =
  if r.rt_diffs = [] then
    Format.fprintf fmt "%-8s transparent (%d points, probe=%Ld)@." r.rt_name
      r.rt_points r.rt_counter
  else begin
    Format.fprintf fmt "%-8s NOT transparent (%d points, probe=%Ld)@." r.rt_name
      r.rt_points r.rt_counter;
    List.iter (fun d -> Format.fprintf fmt "  %s@." d) r.rt_diffs
  end;
  List.iter (fun n -> Format.fprintf fmt "  note: %s@." n) r.rt_notes
