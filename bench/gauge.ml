(* The bench's one clock and one BENCH writer.

   Timing.  Every speed gate and trajectory rate goes through [best],
   which keeps each side's best rate over [rounds] rounds: the timed
   work is deterministic, so noise only ever slows it.  In a round
   each side runs until it has [min_time] seconds (one run when that is
   0); setups are never timed.  The clock follows the code being timed:
   - process CPU time ([Sys.time]) when every side runs on one domain,
     so time the host gives to other tenants does not count.  The sides
     take turns run by run, so host noise and drift land on all of them
     alike and no side gains from its position: sampled one side at a
     time, in a fixed order, the rvserved metrics on/off comparison read
     about 4 points apart depending on which side went first;
   - wall clock when any side runs on several domains, since CPU time
     adds up every domain's work.  Each side runs its rounds back to
     back after one untimed run: on a shared host a multi-domain side
     timed right after single-domain work reads slow (the smoke parse
     speedup read 0.84-1.51x interleaved, 1.80-2.07x back to back, in
     three alternating runs each on one 2-core host).
   [gated] measures once more before a gate fails: a real regression
   fails both times, a noisy window on a shared host rarely does.

   Files.  [write] renders a BENCH file from a [Jsonw] object: one member
   per line, the elements of a top-level list one per line, anything
   deeper inline. *)

module J = Dyn_util.Jsonw

type clock = Cpu | Wall

let now = function Cpu -> Sys.time () | Wall -> Unix.gettimeofday ()

(* A side's setup runs untimed and returns the timed run, which returns
   the work it did: instructions, jobs, cases, or 1. for "one run". *)
type side = unit -> unit -> float

(* One round: the sides take turns, one run each, until each has run
   for [min_time] seconds, and at least once; each side's work per
   second.  On the CPU clock a side's first run in the round starts from
   a collected heap, so it does not pay for the previous side's garbage;
   back-to-back wall-clock rounds each pay for their own side's. *)
let round ~clock ~min_time (sides : side array) =
  let n = Array.length sides in
  let work = Array.make n 0. and dt = Array.make n 0. in
  let pending t = t = 0. || t < min_time in
  while Array.exists pending dt do
    Array.iteri
      (fun i side ->
        if pending dt.(i) then begin
          let run = side () in
          if dt.(i) = 0. && clock = Cpu then Gc.full_major ();
          let t0 = now clock in
          work.(i) <- work.(i) +. run ();
          dt.(i) <- dt.(i) +. (now clock -. t0)
        end)
      sides
  done;
  Array.map2 ( /. ) work dt

(* each side's best rate over [rounds] rounds *)
let best ~clock ?(min_time = 0.) ~rounds (sides : side array) : float array =
  let best_of sides =
    let b = Array.make (Array.length sides) 0. in
    for _ = 1 to rounds do
      Array.iteri (fun i r -> b.(i) <- Float.max b.(i) r) (round ~clock ~min_time sides)
    done;
    b
  in
  match clock with
  | Cpu -> best_of sides
  | Wall ->
      Array.map
        (fun side ->
          ignore (side () ());
          (best_of [| side |]).(0))
        sides

(* [measure ()], and once more when [ok] rejects its result *)
let gated ~ok measure =
  let r = measure () in
  if ok r then r
  else begin
    print_endline "   gate missed: measuring once more";
    measure ()
  end

let int n = J.Int (Int64.of_int n)

let write path (v : J.t) =
  let buf = Buffer.create 1024 in
  let add = Buffer.add_string buf in
  let iter_sep sep f xs = List.iteri (fun i x -> if i > 0 then add sep; f x) xs in
  let rec inline = function
    | J.List xs -> add "["; iter_sep ", " inline xs; add "]"
    | J.Obj kvs ->
        add "{";
        iter_sep ", " (fun (k, x) -> J.escape_to buf k; add ": "; inline x) kvs;
        add "}"
    | x -> J.write_to buf x
  in
  let member (k, x) =
    add "  ";
    J.escape_to buf k;
    add ": ";
    match x with
    | J.List xs ->
        add "[\n";
        iter_sep ",\n" (fun x -> add "    "; inline x) xs;
        add "\n  ]"
    | x -> inline x
  in
  (match v with
  | J.Obj kvs -> add "{\n"; iter_sep ",\n" member kvs; add "\n}\n"
  | _ -> invalid_arg "Gauge.write: a BENCH file is an object");
  Out_channel.with_open_text path (fun oc -> Out_channel.output_string oc (Buffer.contents buf));
  Printf.printf "   wrote %s\n" path
