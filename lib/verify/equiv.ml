(* Per-patch-site observational equivalence.

   For one manifest entry, run the original basic block and the
   rewritten artifact (springboard + trampoline + snippet + edge stubs)
   from the same symbolic entry state, then require that every pair of
   paths with consistent path conditions agrees on:

   - the exit target,
   - every integer and FP register (modulo the manifest's declared
     snippet scratch: dead-allocated clobbers, the springboard scratch
     register, and the assembler's relaxation scratch t1),
   - the store journal, modulo writes the instrumentation owns (the
     patch data area, and spill slots strictly below every stack
     position the original block ever occupies),
   - CSRs, fcsr, the reservation, and the opaque-effect journal.

   A trampoline call links through the trampoline continuation rather
   than the original return address; such a register mismatch is
   discharged by running the continuation and proving it reaches the
   original link target without touching observable state. *)

open Patch_api

type verdict = Proved | Failed of string list | Unknown of string

type site = {
  s_block : int64;
  s_strategy : string;
  s_verdict : verdict;
  s_paths_orig : int;
  s_paths_tramp : int;
  s_steps : int;
}

let default_config =
  { Symexec.max_steps = 2048; max_paths = 48; private_ranges = [] }

(* The trampoline span owned by an entry: up to the next entry's
   trampoline (entries share one region, allocated in address order).
   [span_end m] sorts [m]'s trampoline addresses once; each call of the
   result is a binary search for the first address above the entry's. *)
let span_end (m : Manifest.t) : Manifest.entry -> int64 =
  let limit = Int64.add m.Manifest.m_tramp_base (Int64.of_int m.Manifest.m_tramp_size) in
  let ts =
    Array.of_list (List.map (fun e -> e.Manifest.me_tramp) m.Manifest.m_entries)
  in
  Array.sort Int64.compare ts;
  fun e ->
    let t = e.Manifest.me_tramp in
    let rec first_above lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if Int64.compare ts.(mid) t > 0 then first_above lo mid
        else first_above (mid + 1) hi
    in
    let i = first_above 0 (Array.length ts) in
    if i < Array.length ts && Int64.compare ts.(i) limit < 0 then ts.(i)
    else limit

let excused_regs (e : Manifest.entry) =
  let base = [ Riscv.Reg.t1 ] in
  let base =
    match e.Manifest.me_sb_scratch with Some r -> r :: base | None -> base
  in
  List.fold_left
    (fun acc i -> i.Manifest.mi_clobbers @ acc)
    base e.Manifest.me_insertions

(* Lowest entry-sp-relative byte the original block ever occupies:
   every sp position reached, and the bottom of every sp-relative store.
   Instrumentation writes strictly below this line are invisible to the
   original program. *)
let orig_sp_floor (p : Symexec.path) =
  let sp_base = Symstate.x_init Riscv.Reg.sp in
  List.fold_left
    (fun acc (s : Symstate.store) ->
      match Sterm.split_addr s.Symstate.st_addr with
      | Some b, off when Sterm.equal b sp_base ->
          if Int64.compare off acc < 0 then off else acc
      | _ -> acc)
    p.Symexec.p_state.Symstate.sp_min
    (Symstate.store_journal p.Symexec.p_state)

let in_range lo hi a = Int64.compare a lo >= 0 && Int64.compare a hi < 0

let excused_store (m : Manifest.t) ~sp_floor (s : Symstate.store) =
  let data_lo = m.Manifest.m_data_base in
  let data_hi = Int64.add data_lo (Int64.of_int m.Manifest.m_data_size) in
  match Sterm.split_addr s.Symstate.st_addr with
  | None, c ->
      in_range data_lo data_hi c
      && in_range data_lo data_hi
           (Int64.add c (Int64.of_int ((s.Symstate.st_width / 8) - 1)))
  | Some b, off ->
      Sterm.equal b (Symstate.x_init Riscv.Reg.sp)
      && Int64.compare (Int64.add off (Int64.of_int (s.Symstate.st_width / 8)))
           sp_floor
         <= 0

(* --- state comparison ----------------------------------------------------- *)

let union_keys m1 m2 =
  Symstate.Imap.fold
    (fun k _ acc -> if List.mem k acc then acc else k :: acc)
    m1
    (Symstate.Imap.fold
       (fun k _ acc -> if List.mem k acc then acc else k :: acc)
       m2 [])

(* Try to discharge a link-register mismatch: [tv] points into the
   trampoline; running from there must reach [ov] without new
   observations or register damage beyond [excused]. *)
let discharge_continuation ~config ~rw_code ~in_domain ~excused
    (pt : Symexec.path) (ov : Sterm.t) (tv : Sterm.t) ~tramp_lo ~tramp_hi =
  match (ov, tv) with
  | Sterm.Const _, Sterm.Const cont when in_range tramp_lo tramp_hi cont -> (
      try
        let r =
          Symexec.run ~config ~code:rw_code ~in_domain ~start:cont
            pt.Symexec.p_state
        in
        List.for_all
          (fun (p : Symexec.path) ->
            Sterm.equal p.Symexec.p_exit ov
            &&
            let st = p.Symexec.p_state and st0 = pt.Symexec.p_state in
            List.length st.Symstate.stores = List.length st0.Symstate.stores
            && List.length st.Symstate.effects
               = List.length st0.Symstate.effects
            && List.for_all
                 (fun i ->
                   List.mem i excused
                   || Sterm.equal (Symstate.get_x st i) (Symstate.get_x st0 i))
                 (List.init 31 (fun i -> i + 1)))
          r.Symexec.paths
      with Symexec.Unsupported _ | Symexec.Budget _ -> false)
  | _ -> false

let compare_paths ~config ~(m : Manifest.t) ~excused ~rw_code ~tramp_domain
    ~tramp_lo ~tramp_hi (po : Symexec.path) (pt : Symexec.path) : string list =
  let issues = ref [] in
  let add fmt = Format.kasprintf (fun s -> issues := s :: !issues) fmt in
  let so = po.Symexec.p_state and st = pt.Symexec.p_state in
  (* exit target *)
  if not (Sterm.equal po.Symexec.p_exit pt.Symexec.p_exit) then
    add "exit target differs: %s vs %s"
      (Sterm.to_string po.Symexec.p_exit)
      (Sterm.to_string pt.Symexec.p_exit);
  (* integer registers *)
  List.iter
    (fun i ->
      if not (List.mem i excused) then
        let ov = Symstate.get_x so i and tv = Symstate.get_x st i in
        if not (Sterm.equal ov tv) then
          if
            not
              (discharge_continuation ~config ~rw_code ~in_domain:tramp_domain
                 ~excused pt ov tv ~tramp_lo ~tramp_hi)
          then
            add "x%d (%s) differs: %s vs %s" i (Riscv.Reg.name i)
              (Sterm.to_string ov) (Sterm.to_string tv))
    (List.init 31 (fun i -> i + 1));
  (* FP registers, fcsr, reservation *)
  List.iter
    (fun i ->
      let ov = Symstate.get_f so i and tv = Symstate.get_f st i in
      if not (Sterm.equal ov tv) then add "f%d differs" i)
    (union_keys so.Symstate.fregs st.Symstate.fregs);
  if not (Sterm.equal so.Symstate.fcsr st.Symstate.fcsr) then
    add "fcsr differs: %s vs %s"
      (Sterm.to_string so.Symstate.fcsr)
      (Sterm.to_string st.Symstate.fcsr);
  if not (Sterm.equal so.Symstate.resv st.Symstate.resv) then
    add "reservation differs";
  (* CSR file *)
  List.iter
    (fun i ->
      let ov = Symstate.get_csr so i and tv = Symstate.get_csr st i in
      if not (Sterm.equal ov tv) then
        add "csr 0x%x differs: %s vs %s" i (Sterm.to_string ov)
          (Sterm.to_string tv))
    (union_keys so.Symstate.csrs st.Symstate.csrs);
  (* store journal, modulo instrumentation-owned writes *)
  let sp_floor = orig_sp_floor po in
  let keep s = not (excused_store m ~sp_floor s) in
  let os = List.filter keep (Symstate.store_journal so) in
  let ts = List.filter keep (Symstate.store_journal st) in
  if List.length os <> List.length ts then
    add "store count differs: %d vs %d (after excusing snippet writes)"
      (List.length os) (List.length ts)
  else
    List.iteri
      (fun k ((a : Symstate.store), (b : Symstate.store)) ->
        if a.Symstate.st_width <> b.Symstate.st_width then
          add "store %d width differs" k
        else if not (Sterm.equal a.Symstate.st_addr b.Symstate.st_addr) then
          add "store %d address differs: %s vs %s" k
            (Sterm.to_string a.Symstate.st_addr)
            (Sterm.to_string b.Symstate.st_addr)
        else if not (Sterm.equal a.Symstate.st_value b.Symstate.st_value) then
          add "store %d value differs: %s vs %s" k
            (Sterm.to_string a.Symstate.st_value)
            (Sterm.to_string b.Symstate.st_value))
      (List.combine os ts);
  (* opaque effects (csr_write, fences, reservations, ecall) *)
  let oe = Symstate.effect_journal so and te = Symstate.effect_journal st in
  if List.length oe <> List.length te then
    add "effect count differs: %d vs %d" (List.length oe) (List.length te)
  else
    List.iteri
      (fun k ((a : Symstate.effect), (b : Symstate.effect)) ->
        if
          a.Symstate.ef_name <> b.Symstate.ef_name
          || List.length a.Symstate.ef_args <> List.length b.Symstate.ef_args
          || not (List.for_all2 Sterm.equal a.Symstate.ef_args b.Symstate.ef_args)
        then add "effect %d differs: %s vs %s" k a.Symstate.ef_name b.Symstate.ef_name)
      (List.combine oe te);
  List.rev !issues

(* --- the site check ------------------------------------------------------- *)

(* [tramp_hi] is the end of [e]'s trampoline span ({!span_end}). *)
let check_site ?(config = default_config) ~(cfg : Parse_api.Cfg.t)
    ~(manifest : Manifest.t) ~(rw_code : int64 -> Instruction.t option)
    ~tramp_hi (e : Manifest.entry) : site =
  let mk verdict ~po ~pt ~steps =
    {
      s_block = e.Manifest.me_block;
      s_strategy = e.Manifest.me_strategy;
      s_verdict = verdict;
      s_paths_orig = po;
      s_paths_tramp = pt;
      s_steps = steps;
    }
  in
  match Parse_api.Cfg.block_at cfg e.Manifest.me_block with
  | None ->
      mk (Unknown "no CFG block at manifest entry") ~po:0 ~pt:0 ~steps:0
  | Some b -> (
      let b_lo = e.Manifest.me_block and b_hi = e.Manifest.me_block_end in
      let tramp_lo = e.Manifest.me_tramp in
      let orig_insns = Hashtbl.create 16 in
      List.iter
        (fun (i : Instruction.t) ->
          Hashtbl.replace orig_insns i.Instruction.addr i)
        b.Parse_api.Cfg.b_insns;
      let orig_code pc = Hashtbl.find_opt orig_insns pc in
      let orig_domain pc = in_range b_lo b_hi pc in
      let tramp_domain pc =
        in_range b_lo b_hi pc || in_range tramp_lo tramp_hi pc
      in
      let config =
        {
          config with
          Symexec.private_ranges =
            [
              ( manifest.Manifest.m_data_base,
                Int64.add manifest.Manifest.m_data_base
                  (Int64.of_int manifest.Manifest.m_data_size) );
            ];
        }
      in
      let tramp_start =
        if e.Manifest.me_strategy = "trap" then tramp_lo else b_lo
      in
      try
        let ro =
          Symexec.run ~config ~code:orig_code ~in_domain:orig_domain
            ~start:b_lo Symstate.init
        in
        let rt =
          Symexec.run ~config ~code:rw_code ~in_domain:tramp_domain
            ~start:tramp_start Symstate.init
        in
        let excused = excused_regs e in
        let issues = ref [] in
        (* every consistent orig/tramp path pair must agree *)
        List.iter
          (fun po ->
            let mates =
              List.filter
                (fun pt ->
                  Symexec.consistent po.Symexec.p_conds pt.Symexec.p_conds)
                rt.Symexec.paths
            in
            if mates = [] then
              issues :=
                Printf.sprintf "original path to %s has no rewritten path"
                  (Sterm.to_string po.Symexec.p_exit)
                :: !issues
            else
              List.iter
                (fun pt ->
                  issues :=
                    List.rev_append
                      (compare_paths ~config ~m:manifest ~excused ~rw_code
                         ~tramp_domain ~tramp_lo ~tramp_hi po pt)
                      !issues)
                mates)
          ro.Symexec.paths;
        List.iter
          (fun pt ->
            if
              not
                (List.exists
                   (fun po ->
                     Symexec.consistent po.Symexec.p_conds pt.Symexec.p_conds)
                   ro.Symexec.paths)
            then
              issues :=
                Printf.sprintf "rewritten path to %s has no original path"
                  (Sterm.to_string pt.Symexec.p_exit)
                :: !issues)
          rt.Symexec.paths;
        let verdict =
          match List.sort_uniq compare (List.rev !issues) with
          | [] -> Proved
          | l -> Failed l
        in
        mk verdict
          ~po:(List.length ro.Symexec.paths)
          ~pt:(List.length rt.Symexec.paths)
          ~steps:(ro.Symexec.steps + rt.Symexec.steps)
      with
      | Symexec.Unsupported msg -> mk (Unknown msg) ~po:0 ~pt:0 ~steps:0
      | Symexec.Budget msg ->
          mk (Unknown ("timeout: " ^ msg)) ~po:0 ~pt:0 ~steps:0)
