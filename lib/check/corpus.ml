(* Seeded mini-C programs whose [main] calls every function once: the
   shape of a static-rewrite workload that instruments every block.

   Function bodies come from five shapes: counted loops with branches
   (many small blocks for liveness), while loops over a global array
   (loads and stores), dense switches (jump tables), double arithmetic
   (FP registers) and calls into leaf functions (call edges).  [main]
   is one long chain of call blocks, the worst case for a backward
   dataflow solver that sweeps blocks in address order.  The same seed,
   index and size give the same program as the end-to-end benchmark's
   rewrite corpora. *)

(* Emit function [k]; returns true when it calls nothing (a leaf that
   later functions may call).  Callers only call leaves, so call trees
   have depth two. *)
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

(* The [index]th program of the corpus [seed]: [n_funcs] functions plus
   a [main] that calls each once and prints a checksum. *)
let program ~seed ~index ~n_funcs =
  let g = Prng.of_seed_index ~seed ~index in
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

(* The compiled image of [program]. *)
let image ~seed ~index ~n_funcs =
  (Minicc.Driver.compile (program ~seed ~index ~n_funcs)).Minicc.Driver.image
