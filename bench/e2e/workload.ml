(* What the runner needs from a workload.  Ops report named sums into
   accumulators: [all] sums every op of a window, [first] only a prefix
   of the op sequence that every run completes, so the exact metrics
   computed from it repeat across runs of one seed. *)

module Acc = Measure.Acc

type t = {
  setup : traced:bool -> unit;
      (** everything between workload start and the first timed op:
          daemon spawn, mutatee parsing, an untimed warm-up op *)
  teardown : unit -> unit;
  window :
    breakdown:bool ->
    seconds:float ->
    min_ops:int ->
    first:Acc.t ->
    all:Acc.t ->
    Measure.window;
      (** [breakdown]: a window of the per-layer pass (see Measure.sequential) *)
  code_growth : first:Acc.t -> float * string list;
      (** rewritten over original ELF bytes, in percent, and the
          failures met computing it *)
  peak_rss_mb : unit -> float;  (** of the process doing the work *)
  served_layers : unit -> (string * float) list;
      (** served-mix's per-layer metrics, after teardown *)
  n_items : int;  (** op [k] works on item [k mod n_items]; 0 = no cycle *)
}

(* A workload whose op [k] works on item [k mod n_items], sequentially
   in this process. *)
let in_process ~setup (items : (Acc.t -> unit) array) : t =
  let n = Array.length items in
  let window ~breakdown ~seconds ~min_ops ~first ~all =
    Measure.sequential ~breakdown ~cycle:n ~seconds ~min_ops ~first ~all (fun i ->
        items.(i mod n))
  in
  {
    setup = (fun ~traced:_ -> setup ());
    teardown = ignore;
    window;
    code_growth =
      (fun ~first ->
        (100.0 *. (Acc.ratio first "elf.out_bytes" "elf.orig_bytes" -. 1.0), []));
    peak_rss_mb = (fun () -> Measure.peak_rss_mb 0);
    served_layers = (fun () -> []);
    n_items = n;
  }
