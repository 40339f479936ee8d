(* The host-side trace sink: services the ring's flush syscall by
   copying undrained records out of simulated memory into a host
   buffer, in order.  Registered on the simulated OS with [install];
   [drain] collects the partial tail after the mutatee stops. *)

type t = {
  ring : Ring.t;
  buf : Buffer.t;
  mutable flushes : int; (* syscall-triggered flushes serviced *)
  mutable drained : int64; (* records copied out so far *)
}

let create (ring : Ring.t) : t =
  { ring; buf = Buffer.create 4096; flushes = 0; drained = 0L }

(* Copy records [flushed, widx) out of the ring and advance flushed. *)
let copy_out (t : t) (mem : Rvsim.Mem.t) =
  let open Codegen_api in
  let widx = Rvsim.Mem.read64 mem t.ring.Ring.widx.Snippet.v_addr in
  let flushed = Rvsim.Mem.read64 mem t.ring.Ring.flushed.Snippet.v_addr in
  let cap = Int64.of_int t.ring.Ring.capacity in
  let i = ref flushed in
  while Int64.compare !i widx < 0 do
    let slot = Int64.to_int (Int64.rem !i cap) in
    let addr =
      Int64.add t.ring.Ring.buf_base (Int64.of_int (slot * Record.size))
    in
    Buffer.add_bytes t.buf (Rvsim.Mem.read_bytes mem addr Record.size);
    i := Int64.add !i 1L
  done;
  Rvsim.Mem.write64 mem t.ring.Ring.flushed.Snippet.v_addr widx;
  t.drained <- widx

let handler (t : t) : Rvsim.Syscall.custom_handler =
 fun m _args ->
  copy_out t m.Rvsim.Machine.mem;
  t.flushes <- t.flushes + 1;
  0L

(* Register the flush syscall on a simulated OS (do this before the
   first instrumented instruction runs). *)
let install (t : t) (os : Rvsim.Syscall.t) =
  Rvsim.Syscall.register_syscall os Ring.flush_syscall (handler t)

(* Drain whatever the ring still holds — call once after the mutatee
   exits (or at any quiescent point under ProcControlAPI). *)
let drain (t : t) (m : Rvsim.Machine.t) = copy_out t m.Rvsim.Machine.mem

(* One traced run: load [img], install a sink for [ring] on its OS, run
   the program to its stop and drain the ring.  Returns the sink, the
   stop and the program's stdout. *)
let run (ring : Ring.t) (img : Elfkit.Types.image) :
    t * Rvsim.Machine.stop * string =
  let p = Rvsim.Loader.load img in
  let t = create ring in
  install t p.Rvsim.Loader.os;
  let stop, out = Rvsim.Loader.run p in
  drain t p.Rvsim.Loader.machine;
  (t, stop, out)

let raw (t : t) = Buffer.contents t.buf
let n_records (t : t) = Buffer.length t.buf / Record.size
let records (t : t) : Record.t list = Record.decode_all (Buffer.contents t.buf)
let flushes (t : t) = t.flushes
