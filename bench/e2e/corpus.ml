(* Seeded mini-C corpora for the end-to-end benchmark.

   A program is drawn from a Check_api.Prng stream and compiled by
   minicc; the benchmark hands only the resulting ELF images (or files)
   to the toolkit.  Function bodies come from a handful of shapes that
   cover what the layers care about: counted loops with branches
   (liveness, many small blocks), while loops over a global array
   (loads and stores), dense switches (jump tables), double arithmetic
   (FP registers) and calls into leaf functions (call edges).  [main]
   calls every function once and prints a checksum, so a rewritten
   binary's output and exit code can be checked against the original's.

   Function counts come from a fixed grid, not a draw: every seed yields
   the same size distribution, so host-time metrics compare across
   seeds, and the seed only decides what the functions contain. *)

module Prng = Check_api.Prng

(* Emit function [k]; returns true when it calls nothing (a leaf that
   later functions may call).  Callers only call leaves, so call trees
   have depth two and a run costs a few hundred instructions per
   function. *)
let emit_function g buf ~k ~leaves =
  let p fmt = Printf.bprintf buf fmt in
  let c () = Prng.range g 1 9 in
  match Prng.int g 5 with
  | 0 ->
      p "int f%d(int x) {\n  int i;\n  int s;\n  s = %d;\n" k (c ());
      p "  for (i = 0; i < x; i = i + 1) {\n";
      p "    if (i %% %d == 0) { s = s + i * %d; } else { s = s - %d; }\n"
        (Prng.range g 2 4) (c ()) (c ());
      p "  }\n  return s;\n}\n";
      true
  | 1 ->
      p "int f%d(int x) {\n  int i;\n  int s;\n  i = 0;\n  s = 0;\n" k;
      p "  while (i < x) {\n";
      p "    G[(i + %d) %% 64] = G[(i + %d) %% 64] + i;\n" (c ()) (c ());
      p "    s = s + G[(i * %d) %% 64];\n    i = i + 1;\n  }\n" (c ());
      p "  return s;\n}\n";
      true
  | 2 ->
      p "int f%d(int x) {\n  switch (x %% 6) {\n" k;
      for case = 0 to 5 do
        p "    case %d: return x * %d + %d;\n" case (c ()) case
      done;
      p "    default: return %d;\n  }\n}\n" (c ());
      true
  | 3 ->
      p "int f%d(int x) {\n  double d;\n  int i;\n  d = %d.5;\n" k (c ());
      p "  for (i = 0; i < x; i = i + 1) {\n    d = d * 1.5 + i;\n  }\n";
      p "  return d;\n}\n";
      true
  | _ -> (
      match leaves with
      | [] ->
          p "int f%d(int x) {\n  return x * %d + %d;\n}\n" k (c ()) (c ());
          true
      | _ ->
          let j = Prng.one_of g leaves in
          p "int f%d(int x) {\n  int s;\n  s = f%d(x + %d);\n" k j (c ());
          p "  if (s > %d) { s = s - f%d(%d); }\n  return s;\n}\n" (c ()) j
            (c ());
          false)

(* One program of [n_funcs] functions plus [main]. *)
let source g ~n_funcs =
  let buf = Buffer.create (n_funcs * 200) in
  Buffer.add_string buf "int G[64];\n\n";
  let leaves = ref [] in
  for k = 0 to n_funcs - 1 do
    (* a short window keeps callers near their leaves *)
    let window = List.filteri (fun i _ -> i < 8) !leaves in
    if emit_function g buf ~k ~leaves:window then leaves := k :: !leaves
  done;
  Buffer.add_string buf "int main() {\n  long s;\n  s = 0;\n";
  for k = 0 to n_funcs - 1 do
    Printf.bprintf buf "  s = s * 3 + f%d(%d);\n" k (Prng.range g 2 12)
  done;
  Buffer.add_string buf "  print_int(s);\n  return s % 256;\n}\n";
  Buffer.contents buf

let compile src = (Minicc.Driver.compile src).Minicc.Driver.image

(* 0 .. n-1 in bit-reversed order: every prefix of the sequence is
   spread over the whole range. *)
let bit_reversal n =
  let bits =
    let rec go b = if 1 lsl b >= n then b else go (b + 1) in
    go 0
  in
  let rev i =
    let r = ref 0 in
    for b = 0 to bits - 1 do
      if i land (1 lsl b) <> 0 then r := !r lor (1 lsl (bits - 1 - b))
    done;
    !r
  in
  List.init (1 lsl bits) rev |> List.filter (fun i -> i < n)

(* [count] sizes spread evenly over [lo, hi] on a log scale (each a fixed
   factor above the last), in bit-reversed order, so a run that ends
   mid-pass has still covered the whole range. *)
let size_grid ~lo ~hi ~count =
  let ratio = float hi /. float lo in
  List.map
    (fun i ->
      if count = 1 then lo
      else
        int_of_float
          (Float.round (float lo *. (ratio ** (float i /. float (count - 1))))))
    (bit_reversal count)

(* [per_class] rounds of [size_grid]: several binaries of each size, so
   that what one seed puts in one binary weighs less in the statistics
   of a size. *)
let size_classes ~lo ~hi ~classes ~per_class =
  List.concat (List.init per_class (fun _ -> size_grid ~lo ~hi ~count:classes))

(* The [index]th program of a seeded corpus. *)
let program ~seed ~index ~n_funcs =
  source (Prng.of_seed_index ~seed ~index) ~n_funcs
