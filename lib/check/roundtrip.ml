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
   nonzero, so a silently-dropped instrumentation pass cannot pass.  A
   case id is `roundtrip:MUTATEE`. *)

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

let check name : Diffkit.outcome =
  let max_steps = 20_000_000 in
  let image = Diffkit.builtin name in
  let p_o = Rvsim.Loader.load image in
  let stop_o, out_o = Rvsim.Loader.run ~max_steps p_o in
  let binary = Core.open_image image in
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
  let diffs = ref [] in
  let notes = ref [ Printf.sprintf "%d points, probe=%Ld" (List.length points) counter ] in
  let push fmt = Printf.ksprintf (fun s -> diffs := s :: !diffs) fmt in
  let note fmt = Printf.ksprintf (fun s -> notes := !notes @ [ s ]) fmt in
  let stop_str s = Format.asprintf "%a" Rvsim.Machine.pp_stop s in
  if stop_o <> stop_i then
    push "stop differs: original %s, instrumented %s" (stop_str stop_o)
      (stop_str stop_i);
  if out_o <> out_i then
    if reads_clock name then
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
    (data_sections image);
  if counter = 0L then push "probe counter is zero: instrumentation never executed";
  { Diffkit.diffs = List.rev !diffs; notes = !notes; tags = [] }

let cases mutatees = List.map (( ^ ) "roundtrip:") mutatees

let leg =
  {
    Diffkit.name = "roundtrip";
    run =
      (fun ~verbose:_ -> function
        | [ name ] -> check name | _ -> raise Diffkit.Bad_case);
  }
