(* A fixed-size Domain worker pool fed by a mutex-protected queue.

   rvserved shards jobs across OCaml domains: connection readers
   enqueue closures, workers dequeue and run them.  Tasks must not let
   exceptions escape — the pool logs-and-drops them (a worker dying
   silently would strand its queue share), but job code is expected to
   catch its own errors and turn them into error responses.

   Observability: every task carries its enqueue timestamp, so the
   dequeue records the queue wait in the [serve.pool.queue_wait_ns]
   histogram, whose count is the tasks run (and as a "pool:wait" trace
   span on the worker's track when tracing is on); [serve.pool.queue_depth] is a gauge bumped on
   submit and dropped on dequeue, and each worker accumulates its busy
   nanoseconds in a [serve.pool.workerNN.busy_ns] counter — utilization
   is busy_ns over scrape-interval wall time.

   [run_batch] is the synchronous convenience used by tests and the
   bench harness: submit a list, block until all complete, return
   results in submission order. *)

module Obs = Dyn_obs.Registry
module Trace = Dyn_obs.Trace

let g_depth = Obs.gauge "serve.pool.queue_depth"
let h_wait = Obs.histogram "serve.pool.queue_wait_ns"

type t = {
  mu : Mutex.t;
  cv : Condition.t; (* signalled on enqueue and on stop *)
  q : (int * (unit -> unit)) Queue.t; (* (enqueue ns, task) *)
  mutable stop : bool;
  mutable domains : unit Domain.t list;
  n_domains : int;
}

exception Stopped

let worker t i () =
  let busy = Obs.counter (Printf.sprintf "serve.pool.worker%02d.busy_ns" i) in
  let rec loop () =
    Mutex.lock t.mu;
    while Queue.is_empty t.q && not t.stop do
      Condition.wait t.cv t.mu
    done;
    if Queue.is_empty t.q && t.stop then Mutex.unlock t.mu
    else begin
      let t_enq, task = Queue.pop t.q in
      Mutex.unlock t.mu;
      Obs.add g_depth (-1);
      let t0 = Trace.now_ns () in
      Obs.observe h_wait (t0 - t_enq);
      Trace.complete ~parent:"" ~t0_ns:t_enq ~t1_ns:t0 "pool:wait";
      (try task () with _ -> ());
      Obs.incr ~by:(Trace.now_ns () - t0) busy;
      loop ()
    end
  in
  loop ()

let create ~domains:n =
  let n = max 1 n in
  let t =
    {
      mu = Mutex.create ();
      cv = Condition.create ();
      q = Queue.create ();
      stop = false;
      domains = [];
      n_domains = n;
    }
  in
  t.domains <- List.init n (fun i -> Domain.spawn (worker t i));
  t

let size t = t.n_domains

let submit t task =
  Mutex.lock t.mu;
  if t.stop then begin
    Mutex.unlock t.mu;
    raise Stopped
  end;
  Obs.add g_depth 1;
  Queue.push (Trace.now_ns (), task) t.q;
  Condition.signal t.cv;
  Mutex.unlock t.mu

(* Run every thunk on the pool; block until all are done; results in
   input order.  A raising thunk yields [Error exn] rather than
   poisoning the batch. *)
let run_batch : 'a. t -> (unit -> 'a) list -> ('a, exn) result list =
 fun t thunks ->
  let n = List.length thunks in
  let results = Array.make n None in
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let remaining = ref n in
  List.iteri
    (fun i thunk ->
      submit t (fun () ->
          let r = try Ok (thunk ()) with e -> Error e in
          Mutex.lock mu;
          results.(i) <- Some r;
          decr remaining;
          if !remaining = 0 then Condition.broadcast cv;
          Mutex.unlock mu))
    thunks;
  Mutex.lock mu;
  while !remaining > 0 do
    Condition.wait cv mu
  done;
  Mutex.unlock mu;
  Array.to_list results
  |> List.map (function Some r -> r | None -> assert false)

let shutdown t =
  Mutex.lock t.mu;
  if not t.stop then begin
    t.stop <- true;
    Condition.broadcast t.cv;
    Mutex.unlock t.mu;
    List.iter Domain.join t.domains;
    t.domains <- []
  end
  else Mutex.unlock t.mu
