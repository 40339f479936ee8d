(* Diffkit: the one shape every rvcheck differential leg has.

   A case is a string id, `LEG:FIELD:...`, that encodes every parameter
   the case depends on (`lockstep:1:77`, `engine:fib:timer`,
   `parse:fuzz-4002/96:4`, `roundtrip:fib`), so any case a sweep runs
   can be re-run alone from its id.  A leg owns a case generator (a
   list of ids), its two implementations and its leg-specific diff; it
   hands Diffkit one [run] that maps the id's fields to an outcome:

     diffs  what the two implementations disagree on (empty = agree)
     notes  what a reader of the case wants to see (counts, expected
            differences, a pre-state dump when run verbosely)
     tags   what the sweep tallies (`agree-fault`, `compressed`, and
            `key=value` tags such as `op=addi`, counted per value)

   [sweep] and [pp_summary] are the only sweep and reporter, and every
   failure they print ends in `reproduce: rvcheck replay <id>`, which
   goes through the same [run]. *)

type outcome = { diffs : string list; notes : string list; tags : string list }

type leg = {
  name : string;
  run : verbose:bool -> string list -> outcome;
      (* replay runs verbose; sweeps never do *)
}

(* An id that names no leg, or fields its leg cannot decode. *)
exception Bad_case

(* --- decoding case ids ---------------------------------------------------- *)

let int s = match int_of_string_opt s with Some n -> n | None -> raise Bad_case
let int64 s = match Int64.of_string_opt s with Some n -> n | None -> raise Bad_case

(* Seeded fuzz mutatees are named `fuzz-SEED/LEN` inside an id. *)
let fuzz_name ~seed ~len = Printf.sprintf "fuzz-%d/%d" seed len

let fuzz_of_name name =
  match Scanf.sscanf_opt name "fuzz-%Ld/%d%!" (fun s l -> (s, l)) with
  | Some (_, len) when len < 0 -> raise Bad_case
  | r -> r

(* A built-in minicc mutatee, compiled. *)
let builtin name =
  match List.assoc_opt name Minicc.Programs.builtins with
  | Some src -> (Minicc.Driver.compile (Lazy.force src)).Minicc.Driver.image
  | None -> raise Bad_case

let run ~verbose legs id =
  match String.split_on_char ':' id with
  | name :: fields -> (
      match List.find_opt (fun l -> l.name = name) legs with
      | Some leg -> leg.run ~verbose fields
      | None -> raise Bad_case)
  | [] -> raise Bad_case

(* Re-run one case verbosely: what `rvcheck replay ID` does. *)
let replay legs id = run ~verbose:true legs id

(* --- the one machine-state diff ------------------------------------------- *)

(* First byte where two sparse memories disagree (absent pages count as
   all-zero), as (address, byte in [a], byte in [b]). *)
let mem_first_diff (a : Rvsim.Mem.t) (b : Rvsim.Mem.t) =
  let page_size = 1 lsl 12 in
  let keys t = Hashtbl.fold (fun k _ acc -> k :: acc) t.Rvsim.Mem.pages [] in
  let zero = Bytes.make page_size '\000' in
  let page t k = Option.value (Hashtbl.find_opt t.Rvsim.Mem.pages k) ~default:zero in
  List.sort_uniq compare (keys a @ keys b)
  |> List.find_map (fun k ->
         let pa = page a k and pb = page b k in
         if Bytes.equal pa pb then None
         else
           let rec scan i =
             if Bytes.get pa i <> Bytes.get pb i then
               Some
                 ( Int64.of_int ((k * page_size) + i),
                   Char.code (Bytes.get pa i),
                   Char.code (Bytes.get pb i) )
             else scan (i + 1)
           in
           scan 0)

(* pc, x1..x31, f0..f31, fcsr, the LR/SC reservation and the first
   differing memory byte, each line labelled with the two sides. *)
let machines ~a ~b (m1 : Rvsim.Machine.t) (m2 : Rvsim.Machine.t) =
  let ds = ref [] in
  let push what va vb = ds := Printf.sprintf "%s: %s %s, %s %s" what a va b vb :: !ds in
  let hex = Printf.sprintf "0x%Lx" in
  if m1.pc <> m2.pc then push "pc" (hex m1.pc) (hex m2.pc);
  for r = 1 to 31 do
    if m1.regs.(r) <> m2.regs.(r) then
      push (Printf.sprintf "x%d" r) (hex m1.regs.(r)) (hex m2.regs.(r))
  done;
  for r = 0 to 31 do
    if m1.fregs.(r) <> m2.fregs.(r) then
      push (Printf.sprintf "f%d" r) (hex m1.fregs.(r)) (hex m2.fregs.(r))
  done;
  if m1.fcsr <> m2.fcsr then push "fcsr" (string_of_int m1.fcsr) (string_of_int m2.fcsr);
  if m1.reservation <> m2.reservation then begin
    let s = function None -> "none" | Some x -> hex x in
    push "reservation" (s m1.reservation) (s m2.reservation)
  end;
  (match mem_first_diff m1.mem m2.mem with
  | Some (addr, va, vb) ->
      push (Printf.sprintf "mem[0x%Lx]" addr) (Printf.sprintf "%02x" va)
        (Printf.sprintf "%02x" vb)
  | None -> ());
  List.rev !ds

(* --- the one sweep and reporter ------------------------------------------- *)

type summary = {
  leg : string;
  cases : int;
  failed : int;
  tags : (string * int) list; (* tallies, most frequent first *)
  failures : (string * outcome) list; (* the first few, in case order *)
}

(* One case: the id, its verdict and first note on one line, then the
   diffs, the other notes and — for a divergence — its replay line. *)
let pp_case fmt id o =
  let head, rest = match o.notes with [] -> ("", []) | n :: r -> ("  " ^ n, r) in
  Format.fprintf fmt "%-26s %s%s@." id (if o.diffs = [] then "ok" else "DIVERGED") head;
  List.iter (Format.fprintf fmt "  %s@.") o.diffs;
  List.iter (Format.fprintf fmt "  note: %s@.") rest;
  if o.diffs <> [] then Format.fprintf fmt "  reproduce: rvcheck replay %s@." id

(* Run every id through [leg]; [log] gets each agreeing case that has
   notes as it finishes (failures are printed by [pp_summary]). *)
let max_failures = 10

let sweep ?log leg ids =
  let tally = Hashtbl.create 64 in
  let bump t =
    Hashtbl.replace tally t (1 + Option.value (Hashtbl.find_opt tally t) ~default:0)
  in
  let cases = ref 0 and failed = ref 0 and failures = ref [] in
  List.iter
    (fun id ->
      let o = run ~verbose:false [ leg ] id in
      incr cases;
      List.iter bump o.tags;
      if o.diffs <> [] then begin
        incr failed;
        if !failed <= max_failures then failures := (id, o) :: !failures
      end
      else match log with Some fmt when o.notes <> [] -> pp_case fmt id o | _ -> ())
    ids;
  {
    leg = leg.name;
    cases = !cases;
    failed = !failed;
    tags =
      Hashtbl.fold (fun t n acc -> (t, n) :: acc) tally []
      |> List.sort (fun (t1, a) (t2, b) -> compare (b, t1) (a, t2));
    failures = List.rev !failures;
  }

let split tag =
  match String.index_opt tag '=' with
  | Some i ->
      (String.sub tag 0 i, Some (String.sub tag (i + 1) (String.length tag - i - 1)))
  | None -> (tag, None)

(* How many cases carry [tag]; the values a [key=value] tag took, with
   their counts. *)
let count s tag = Option.value (List.assoc_opt tag s.tags) ~default:0

let values s key =
  List.filter_map
    (fun (t, n) -> match split t with k, Some v when k = key -> Some (v, n) | _ -> None)
    s.tags

let distinct s key = List.length (values s key)

let pp_summary ?(verbose = false) fmt s =
  Format.fprintf fmt "%s: %d cases, %d diverged@." s.leg s.cases s.failed;
  let pct n = 100.0 *. float_of_int n /. float_of_int (max 1 s.cases) in
  List.iter
    (fun k ->
      match List.assoc_opt k s.tags with
      | Some n -> Format.fprintf fmt "  %-12s %d (%.1f%%)@." k n (pct n)
      | None ->
          Format.fprintf fmt "  %-12s %d distinct@." k (distinct s k);
          if verbose then
            List.iter
              (fun (v, n) -> Format.fprintf fmt "    %-12s %d@." v n)
              (values s k))
    (List.sort_uniq compare (List.map (fun (t, _) -> fst (split t)) s.tags));
  List.iter
    (fun (id, o) ->
      Format.fprintf fmt "@.";
      pp_case fmt id o)
    s.failures;
  if s.failed > List.length s.failures then
    Format.fprintf fmt "... and %d more divergences@." (s.failed - List.length s.failures)
