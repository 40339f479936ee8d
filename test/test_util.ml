(* Unit and property tests for the utility substrate: bit helpers,
   interval maps (block indexing / gap discovery), and the digraph
   (dominators, natural loops). *)

open Dyn_util

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)

(* --- bits -------------------------------------------------------------------- *)

let test_bits () =
  checki "extract" 0xA (Bits.extract 0xAB 4 4);
  checki "sign_extend positive" 5 (Bits.sign_extend 5 4);
  checki "sign_extend negative" (-1) (Bits.sign_extend 0xF 4);
  checki "sign_extend boundary" (-8) (Bits.sign_extend 8 4);
  checkb "fits 12" true (Bits.fits_signed 2047L 12);
  checkb "fits 12 neg" true (Bits.fits_signed (-2048L) 12);
  checkb "overflow 12" false (Bits.fits_signed 2048L 12);
  Alcotest.(check int64) "sx64" (-1L) (Bits.sign_extend64 0xFFL 8);
  Alcotest.(check int64) "align up" 16L (Bits.align_up 9L 16);
  Alcotest.(check int64) "align up exact" 16L (Bits.align_up 16L 16);
  Alcotest.(check int64) "align down" 0L (Bits.align_down 15L 16)

let prop_sign_extend_roundtrip =
  QCheck.Test.make ~name:"sign_extend(x mod 2^n) inverts for in-range x"
    ~count:1000
    QCheck.(pair (int_range (-2048) 2047) (int_range 12 20))
    (fun (v, n) -> Bits.sign_extend (v land ((1 lsl n) - 1)) n = v)

(* --- interval map -------------------------------------------------------------- *)

let test_interval_map_basic () =
  let m = Interval_map.empty in
  let m = Interval_map.add m 10L 20L "a" in
  let m = Interval_map.add m 30L 40L "b" in
  checkb "stab inside" true (Interval_map.find_addr m 15L = Some (10L, 20L, "a"));
  checkb "stab start" true (Interval_map.find_addr m 10L <> None);
  checkb "stab end excl" true (Interval_map.find_addr m 20L = None);
  checkb "stab gap" true (Interval_map.find_addr m 25L = None);
  checkb "overlap detected" true (Interval_map.overlaps m 15L 35L);
  checkb "adjacent ok" false (Interval_map.overlaps m 20L 30L);
  checkb "add overlap raises" true
    (match Interval_map.add m 19L 21L "c" with
    | exception Interval_map.Overlap _ -> true
    | _ -> false);
  checki "cardinal" 2 (Interval_map.cardinal m)

let test_interval_map_gaps () =
  let m = Interval_map.empty in
  let m = Interval_map.add m 10L 20L () in
  let m = Interval_map.add m 30L 40L () in
  Alcotest.(check (list (pair int64 int64)))
    "gaps over [0,50)"
    [ (0L, 10L); (20L, 30L); (40L, 50L) ]
    (Interval_map.gaps m 0L 50L);
  Alcotest.(check (list (pair int64 int64)))
    "gaps fully covered" []
    (Interval_map.gaps m 12L 18L);
  Alcotest.(check (list (pair int64 int64)))
    "gaps empty map"
    [ (0L, 5L) ]
    (Interval_map.gaps Interval_map.empty 0L 5L)

(* Addresses are unsigned: keys with the top bit set used to compare
   negative through the signed Map ordering, breaking stabbing queries,
   overlap detection and gap parsing for high-half addresses.  These
   all failed (or raised) before the switch to Int64.unsigned_compare. *)
let test_interval_map_high_addresses () =
  let lo = 0xFFFF_FFFF_8000_0000L in
  let hi = 0xFFFF_FFFF_8000_1000L in
  let m = Interval_map.add Interval_map.empty lo hi "high" in
  checkb "stab high-half" true
    (Interval_map.find_addr m 0xFFFF_FFFF_8000_0800L = Some (lo, hi, "high"));
  checkb "stab below" true (Interval_map.find_addr m 0x1000L = None);
  (* a low interval alongside: the high one must not shadow it *)
  let m = Interval_map.add m 0x1000L 0x2000L "low" in
  checkb "stab low with high present" true
    (Interval_map.find_addr m 0x1800L = Some (0x1000L, 0x2000L, "low"));
  checkb "stab high with low present" true
    (Interval_map.find_addr m 0xFFFF_FFFF_8000_0FFFL = Some (lo, hi, "high"));
  (* iteration order is unsigned-ascending *)
  Alcotest.(check (list int64))
    "unsigned order"
    [ 0x1000L; lo ]
    (List.map (fun (l, _, _) -> l) (Interval_map.to_list m));
  (* overlap detection across the sign boundary *)
  checkb "overlaps high" true (Interval_map.overlaps m lo (Int64.add lo 1L));
  checkb "no overlap between halves" false
    (Interval_map.overlaps m 0x2000L 0x8000_0000_0000_0000L);
  (* an interval spanning the signed boundary is non-empty unsigned;
     [add] used to reject it as empty (lo > hi signed) *)
  let b_lo = 0x7FFF_FFFF_FFFF_F000L and b_hi = 0x8000_0000_0000_1000L in
  let m2 = Interval_map.add Interval_map.empty b_lo b_hi "span" in
  checkb "stab across boundary" true
    (Interval_map.find_addr m2 0x8000_0000_0000_0000L = Some (b_lo, b_hi, "span"));
  (* gap parsing in a high-half window *)
  Alcotest.(check (list (pair int64 int64)))
    "gaps around a high interval"
    [ (0xFFFF_FFFF_0000_0000L, lo); (hi, 0xFFFF_FFFF_9000_0000L) ]
    (Interval_map.gaps m 0xFFFF_FFFF_0000_0000L 0xFFFF_FFFF_9000_0000L)

let test_interval_map_overlap_queries () =
  let m = Interval_map.empty in
  let m = Interval_map.add m 10L 20L "a" in
  let m = Interval_map.add m 20L 30L "b" in
  let m = Interval_map.add m 40L 50L "c" in
  (* boundary addresses: intervals are half-open [lo, hi) *)
  checkb "20 belongs to b, not a" true
    (Interval_map.find_addr m 20L = Some (20L, 30L, "b"));
  checkb "hi-1 still inside" true
    (Interval_map.find_addr m 29L = Some (20L, 30L, "b"));
  checkb "hi outside" true (Interval_map.find_addr m 30L = None);
  (* overlap queries against exact boundaries *)
  checkb "query ending at lo misses" false (Interval_map.overlaps m 0L 10L);
  checkb "query starting at hi misses" false (Interval_map.overlaps m 50L 60L);
  checkb "one-byte overlap at lo hits" true (Interval_map.overlaps m 9L 11L);
  checkb "one-byte overlap at hi-1 hits" true
    (Interval_map.overlaps m 49L 60L);
  (* overlapping returns every intersecting interval, in address order *)
  Alcotest.(check (list string))
    "overlapping [15,45)" [ "a"; "b"; "c" ]
    (List.map (fun (_, _, v) -> v) (Interval_map.overlapping m 15L 45L));
  Alcotest.(check (list string))
    "overlapping the gap [30,40)" []
    (List.map (fun (_, _, v) -> v) (Interval_map.overlapping m 30L 40L));
  (* abutting intervals never report mutual overlap *)
  checkb "abutting a|b not overlapping" false (Interval_map.overlaps m 20L 20L)

let prop_interval_disjoint =
  (* inserting random disjoint intervals: every inside point stabs, every
     outside point misses *)
  QCheck.Test.make ~name:"interval map stabbing" ~count:300
    QCheck.(small_list (pair (int_range 0 200) (int_range 1 10)))
    (fun pairs ->
      let m = ref Interval_map.empty in
      let kept = ref [] in
      List.iter
        (fun (lo, len) ->
          let lo = Int64.of_int lo and hi = Int64.of_int (lo + len) in
          if not (Interval_map.overlaps !m lo hi) then begin
            m := Interval_map.add !m lo hi ();
            kept := (lo, hi) :: !kept
          end)
        pairs;
      List.for_all
        (fun (lo, hi) ->
          Interval_map.find_addr !m lo <> None
          && Interval_map.find_addr !m (Int64.sub hi 1L) <> None)
        !kept)

(* --- digraph -------------------------------------------------------------------- *)

let diamond () =
  (* 0 -> 1 -> 3, 0 -> 2 -> 3 *)
  let g = Digraph.create () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 0 2;
  Digraph.add_edge g 1 3;
  Digraph.add_edge g 2 3;
  g

let test_digraph_basic () =
  let g = diamond () in
  checki "nodes" 4 (Digraph.n_nodes g);
  checki "edges" 4 (Digraph.n_edges g);
  checkb "succ" true (Digraph.IntSet.mem 1 (Digraph.succs g 0));
  checkb "pred" true (Digraph.IntSet.mem 2 (Digraph.preds g 3));
  checki "reachable" 4 (Digraph.IntSet.cardinal (Digraph.reachable g 0));
  checki "reachable from 1" 2 (Digraph.IntSet.cardinal (Digraph.reachable g 1))

let test_dominators () =
  let g = diamond () in
  let idom = Digraph.idoms g 0 in
  checkb "0 dominates all" true
    (List.for_all (fun n -> Digraph.dominates idom 0 n) [ 1; 2; 3 ]);
  checkb "1 does not dominate 3" false (Digraph.dominates idom 1 3);
  checkb "3's idom is 0" true (Digraph.IntMap.find 3 idom = 0)

let test_natural_loops () =
  (* 0 -> 1 -> 2 -> 1 (back edge), 2 -> 3 *)
  let g = Digraph.create () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 1;
  Digraph.add_edge g 2 3;
  match Digraph.natural_loops g 0 with
  | [ (header, body) ] ->
      checki "header" 1 header;
      checkb "body = {1,2}" true
        (Digraph.IntSet.elements body = [ 1; 2 ])
  | loops -> Alcotest.failf "expected 1 loop, got %d" (List.length loops)

let test_rpo () =
  let g = diamond () in
  match Digraph.reverse_postorder g 0 with
  | 0 :: rest ->
      checkb "all visited" true (List.length rest = 3);
      checkb "3 last" true (List.nth rest 2 = 3)
  | _ -> Alcotest.fail "rpo must start at root"

let test_scc_cyclic () =
  (* 0 -> 1 -> 2 -> 1 (cycle {1,2}), 2 -> 3, 3 -> 3 (self loop) *)
  let g = Digraph.create () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 2;
  Digraph.add_edge g 2 1;
  Digraph.add_edge g 2 3;
  Digraph.add_edge g 3 3;
  let comps = List.map (List.sort compare) (Digraph.scc g) in
  checki "three components" 3 (List.length comps);
  checkb "cycle collapsed" true (List.mem [ 1; 2 ] comps);
  checkb "self-loop alone" true (List.mem [ 3 ] comps);
  checkb "root alone" true (List.mem [ 0 ] comps);
  (* condensation order: sources before sinks *)
  checkb "0 before {1,2} before {3}" true (comps = [ [ 0 ]; [ 1; 2 ]; [ 3 ] ])

let test_scc_two_cycles () =
  (* two disjoint cycles bridged by one edge: {0,1} -> {2,3} *)
  let g = Digraph.create () in
  Digraph.add_edge g 0 1;
  Digraph.add_edge g 1 0;
  Digraph.add_edge g 2 3;
  Digraph.add_edge g 3 2;
  Digraph.add_edge g 1 2;
  let comps = List.map (List.sort compare) (Digraph.scc g) in
  checkb "both cycles found" true (comps = [ [ 0; 1 ]; [ 2; 3 ] ])

let test_topo_order () =
  let g = diamond () in
  let order = Digraph.topo_order g in
  let pos n =
    let rec go i = function
      | [] -> Alcotest.failf "node %d missing from topo order" n
      | x :: _ when x = n -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 order
  in
  checki "all nodes present" 4 (List.length order);
  (* every edge goes forward in the order *)
  List.iter
    (fun (a, b) ->
      checkb (Printf.sprintf "%d before %d" a b) true (pos a < pos b))
    [ (0, 1); (0, 2); (1, 3); (2, 3) ];
  (* on a cyclic graph the cycle's members stay adjacent *)
  let g2 = Digraph.create () in
  Digraph.add_edge g2 0 1;
  Digraph.add_edge g2 1 2;
  Digraph.add_edge g2 2 1;
  Digraph.add_edge g2 2 3;
  let o2 = Digraph.topo_order g2 in
  checkb "cyclic topo = 0 {1 2} 3" true
    (o2 = [ 0; 1; 2; 3 ] || o2 = [ 0; 2; 1; 3 ])

let prop_scc_partition =
  (* SCCs of a random graph partition exactly its node set *)
  QCheck.Test.make ~name:"scc partitions the nodes" ~count:300
    QCheck.(small_list (pair (int_range 0 15) (int_range 0 15)))
    (fun edges ->
      let g = Digraph.create () in
      List.iter (fun (a, b) -> Digraph.add_edge g a b) edges;
      let members = List.concat (Digraph.scc g) in
      List.sort compare members = List.sort compare (Digraph.nodes g))

(* --- byte_buf --------------------------------------------------------------------- *)

let test_byte_buf_roundtrip () =
  let w = Byte_buf.writer () in
  Byte_buf.w_u8 w 0xAB;
  Byte_buf.w_u16 w 0x1234;
  Byte_buf.w_u32 w 0xDEADBEEF;
  Byte_buf.w_u64 w 0x1122334455667788L;
  Byte_buf.w_cstring w "hi";
  Byte_buf.w_uleb128 w 624485;
  Byte_buf.w_align w 4;
  let r = Byte_buf.reader (Byte_buf.w_contents w) in
  checki "u8" 0xAB (Byte_buf.u8 r);
  checki "u16" 0x1234 (Byte_buf.u16 r);
  checki "u32" 0xDEADBEEF (Byte_buf.u32 r);
  Alcotest.(check int64) "u64" 0x1122334455667788L (Byte_buf.u64 r);
  Alcotest.(check string) "cstring" "hi" (Byte_buf.cstring r);
  checki "uleb" 624485 (Byte_buf.uleb128 r);
  checkb "out of bounds raises" true
    (match Byte_buf.u64 r with
    | exception Byte_buf.Out_of_bounds _ -> true
    | _ -> false)

let prop_uleb_roundtrip =
  QCheck.Test.make ~name:"uleb128 round trip" ~count:1000
    QCheck.(int_bound 0x3FFFFFFF)
    (fun v ->
      let w = Byte_buf.writer () in
      Byte_buf.w_uleb128 w v;
      Byte_buf.uleb128 (Byte_buf.reader (Byte_buf.w_contents w)) = v)

(* [w_u32] used to silently truncate out-of-range values through
   [Int32.of_int], and [uleb128] used to keep shifting past bit 63 on a
   long continuation chain ([lsl] beyond the word size is unspecified).
   Both now raise. *)
let test_byte_buf_overflow () =
  let raises_invalid f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  let w = Byte_buf.writer () in
  checkb "w_u32 2^32 raises" true (raises_invalid (fun () -> Byte_buf.w_u32 w (1 lsl 32)));
  checkb "w_u32 negative raises" true (raises_invalid (fun () -> Byte_buf.w_u32 w (-1)));
  checkb "nothing written by rejected w_u32" true (Byte_buf.w_len w = 0);
  Byte_buf.w_u32 w 0xFFFF_FFFF;
  let r = Byte_buf.reader (Byte_buf.w_contents w) in
  checki "max u32 round-trips" 0xFFFF_FFFF (Byte_buf.u32 r);
  (* ten continuation groups = 70 bits: must refuse, not wrap *)
  let bad = Bytes.make 10 '\x80' in
  Bytes.set bad 9 '\x01';
  checkb "uleb128 >63 bits raises" true
    (match Byte_buf.uleb128 (Byte_buf.reader bad) with
    | exception Byte_buf.Malformed _ -> true
    | _ -> false);
  (* a 9-group chain (63 bits) is still fine *)
  let ok = Bytes.make 9 '\x80' in
  Bytes.set ok 8 '\x01';
  checkb "63-bit uleb128 accepted" true
    (Byte_buf.uleb128 (Byte_buf.reader ok) = 1 lsl 56)

let qt t = QCheck_alcotest.to_alcotest ~long:false t

let () =
  Alcotest.run "util"
    [
      ( "bits",
        [
          Alcotest.test_case "helpers" `Quick test_bits;
          qt prop_sign_extend_roundtrip;
        ] );
      ( "interval-map",
        [
          Alcotest.test_case "basic" `Quick test_interval_map_basic;
          Alcotest.test_case "gaps" `Quick test_interval_map_gaps;
          Alcotest.test_case "overlap queries & boundaries" `Quick
            test_interval_map_overlap_queries;
          Alcotest.test_case "high-half (unsigned) addresses" `Quick
            test_interval_map_high_addresses;
          qt prop_interval_disjoint;
        ] );
      ( "digraph",
        [
          Alcotest.test_case "basic" `Quick test_digraph_basic;
          Alcotest.test_case "dominators" `Quick test_dominators;
          Alcotest.test_case "natural loops" `Quick test_natural_loops;
          Alcotest.test_case "reverse postorder" `Quick test_rpo;
          Alcotest.test_case "scc on cyclic input" `Quick test_scc_cyclic;
          Alcotest.test_case "scc two cycles" `Quick test_scc_two_cycles;
          Alcotest.test_case "topo order" `Quick test_topo_order;
          qt prop_scc_partition;
        ] );
      ( "byte-buf",
        [
          Alcotest.test_case "roundtrip" `Quick test_byte_buf_roundtrip;
          Alcotest.test_case "overflow rejection" `Quick
            test_byte_buf_overflow;
          qt prop_uleb_roundtrip;
        ] );
    ]
