(* The rvcheck lockstep oracle: one instruction, two semantics.

   For a fuzzed case, two identical machines are built; one executes the
   instruction with the hand-written interpreter (Rvsim.Machine.step,
   fetching and decoding the raw bytes itself), the other applies the
   mini-SAIL IR semantics (Sailsem.Eval.exec) to the decoded
   instruction.  Afterwards the full architectural state is diffed with
   Diffkit.machines: pc, x1..x31, f0..f31, fcsr, the LR/SC reservation
   and every touched memory page.  A case id is `lockstep:SEED:INDEX`.

   Faults are part of the contract: if the interpreter refuses the case
   (illegal CSR, out-of-range address) the evaluator must refuse it too,
   and vice versa.  When both sides fault, state is not diffed — the
   machines stopped mid-instruction and partial effects are unspecified;
   agreeing on the *refusal* is the property. *)

open Riscv

let setup_machine (c : Fuzz.case) =
  let m = Rvsim.Machine.create () in
  Array.blit c.Fuzz.c_regs 0 m.Rvsim.Machine.regs 0 32;
  m.Rvsim.Machine.regs.(0) <- 0L;
  Array.blit c.Fuzz.c_fregs 0 m.Rvsim.Machine.fregs 0 32;
  m.Rvsim.Machine.pc <- c.Fuzz.c_pc;
  m.Rvsim.Machine.fcsr <- c.Fuzz.c_fcsr;
  m.Rvsim.Machine.reservation <- c.Fuzz.c_reservation;
  (* deterministic nonzero data under the register window *)
  for k = 0 to (Fuzz.mem_hi - Fuzz.mem_lo) / 8 do
    Rvsim.Mem.write64 m.Rvsim.Machine.mem
      (Int64.of_int (Fuzz.mem_lo + (k * 8)))
      (Int64.of_int ((k * 0x0F1E_2D3C) lxor 0x5A5A))
  done;
  Rvsim.Mem.write_bytes m.Rvsim.Machine.mem c.Fuzz.c_pc c.Fuzz.c_bytes;
  m

let eval_state_of_machine (m : Rvsim.Machine.t) : Sailsem.Eval.state =
  let open Rvsim in
  {
    Sailsem.Eval.get_x = Machine.get_reg m;
    set_x = Machine.set_reg m;
    get_f = Machine.get_freg m;
    set_f = Machine.set_freg m;
    load =
      (fun w a ->
        match w with
        | 8 -> Int64.of_int (Mem.read8 m.Machine.mem a)
        | 16 -> Int64.of_int (Mem.read16 m.Machine.mem a)
        | 32 -> Int64.of_int (Mem.read32 m.Machine.mem a)
        | _ -> Mem.read64 m.Machine.mem a);
    store =
      (fun w a v ->
        match w with
        | 8 -> Mem.write8 m.Machine.mem a (Int64.to_int (Int64.logand v 0xFFL))
        | 16 -> Mem.write16 m.Machine.mem a (Int64.to_int (Int64.logand v 0xFFFFL))
        | 32 ->
            Mem.write32 m.Machine.mem a
              (Int64.to_int (Int64.logand v 0xFFFF_FFFFL))
        | _ -> Mem.write64 m.Machine.mem a v);
    csr_read = Machine.csr_read m;
    csr_write = Machine.csr_write m;
    get_fcsr = (fun () -> Int64.of_int m.Machine.fcsr);
    set_fcsr = (fun v -> m.Machine.fcsr <- Int64.to_int v land 0xFF);
    reservation = m.Machine.reservation;
  }

let pp_stop_str stop = Format.asprintf "%a" Rvsim.Machine.pp_stop stop

(* Step both sides.  [Error reason] when both refuse; otherwise the
   diffs: a one-sided refusal, or the post-state differences. *)
let step_both (c : Fuzz.case) (insn : Insn.t) m1 m2 =
  let sim_stop = Rvsim.Machine.step m1 in
  let sail_result =
    match Sailsem.Sail.sem_of_op insn.Insn.op with
    | None -> Error "no semantics for opcode"
    | Some sem -> (
        let st = eval_state_of_machine m2 in
        match Sailsem.Eval.exec sem ~insn ~pc:c.Fuzz.c_pc st with
        | pc' ->
            m2.Rvsim.Machine.pc <- pc';
            m2.Rvsim.Machine.reservation <- st.Sailsem.Eval.reservation;
            Ok ()
        | exception Rvsim.Mem.Fault a ->
            Error (Printf.sprintf "memory fault at 0x%Lx" a)
        | exception Rvsim.Machine.Illegal_csr n ->
            Error (Printf.sprintf "illegal csr 0x%x" n)
        | exception Sailsem.Eval.Eval_error msg -> Error ("eval: " ^ msg))
  in
  match (sim_stop, sail_result) with
  | None, Ok () -> Ok (Diffkit.machines ~a:"sim" ~b:"sail" m1 m2)
  | Some stop, Error _ -> Error (pp_stop_str stop)
  | Some stop, Ok () -> Ok [ "stop: sim " ^ pp_stop_str stop ^ ", sail stepped" ]
  | None, Error msg -> Ok [ "stop: sim stepped, sail " ^ msg ]

(* The case, what compressed bytes decode to, a shared refusal and —
   verbose only — the pre-state of the operands, reservation and fcsr. *)
let describe ~verbose (c : Fuzz.case) decoded fault =
  let i = Option.value decoded ~default:c.Fuzz.c_insn in
  let compressed = Bytes.length c.Fuzz.c_bytes = 2 in
  (* each operand from its own register file: f for FP operands *)
  let operands =
    let op = i.Insn.op in
    [
      (Op.rd_is_fp op, i.Insn.rd);
      (Op.rs1_is_fp op, i.Insn.rs1);
      (Op.rs2_is_fp op, i.Insn.rs2);
    ]
    @ (if Op.has_rs3 op then [ (true, i.Insn.rs3) ] else [])
    |> List.filter (fun (fp, r) -> fp || r > 0)
    |> List.sort_uniq compare
  in
  let pre =
    List.map
      (fun (fp, r) ->
        if fp then Printf.sprintf "pre f%-2d = 0x%Lx" r c.Fuzz.c_fregs.(r)
        else Printf.sprintf "pre x%-2d = 0x%Lx" r c.Fuzz.c_regs.(r))
      operands
    @ (match c.Fuzz.c_reservation with
      | Some a -> [ Printf.sprintf "pre reservation = 0x%Lx" a ]
      | None -> [])
    @ if c.Fuzz.c_fcsr <> 0 then [ Printf.sprintf "pre fcsr = %d" c.Fuzz.c_fcsr ] else []
  in
  List.concat
    [
      [ Format.asprintf "%a" Fuzz.pp_case c ];
      (if compressed && decoded <> None then [ "decodes to: " ^ Insn.to_string i ]
       else []);
      (match fault with Some why -> [ "both fault (" ^ why ^ ")" ] | None -> []);
      (if verbose then pre else []);
    ]

(* Run one fuzzed case through both semantics.  Tags: [agree] or
   [agree-fault], [compressed], and [op=MNEMONIC] of the decoded
   instruction.  Failures and verbose runs are described in the notes. *)
let check ~verbose (c : Fuzz.case) : Diffkit.outcome =
  let m1 = setup_machine c in
  let m2 = setup_machine c in
  let decoded = Decode.decode c.Fuzz.c_bytes in
  let diffs, tags, fault =
    match decoded with
    | None ->
        let want = Insn.to_string c.Fuzz.c_insn in
        ([ "decode: generated bytes do not decode, expected " ^ want ], [], None)
    | Some insn -> (
        let op = "op=" ^ Op.mnemonic insn.Insn.op in
        match step_both c insn m1 m2 with
        | Error why -> ([], [ "agree-fault"; op ], Some why)
        | Ok [] -> ([], [ "agree"; op ], None)
        | Ok ds -> (ds, [ op ], None))
  in
  let tags = if Bytes.length c.Fuzz.c_bytes = 2 then "compressed" :: tags else tags in
  let notes = if verbose || diffs <> [] then describe ~verbose c decoded fault else [] in
  { Diffkit.diffs; notes; tags }

let cases ~seed ~count = List.init count (Printf.sprintf "lockstep:%Ld:%d" seed)

let leg =
  {
    Diffkit.name = "lockstep";
    run =
      (fun ~verbose -> function
        | [ seed; index ] ->
            let seed = Diffkit.int64 seed and index = Diffkit.int index in
            check ~verbose (Fuzz.case_of ~seed ~index)
        | _ -> raise Diffkit.Bad_case);
  }
