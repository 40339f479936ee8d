(* A small two-pass assembler over [Insn.t] streams with labels, used to
   build mutatee code (minicc backend, tests) and instrumentation
   trampolines.

   Label-relative items (branches, calls, la) are relaxed iteratively:
   sizing starts optimistic (shortest form) and grows until a fixpoint,
   mirroring how compilers choose between jal and auipc+jalr sequences
   (paper §3.2.3). *)

open Dyn_util

type item =
  | Insn of Insn.t
  | Label of string
  | Br of Op.t * Reg.t * Reg.t * string (* conditional branch to label *)
  | J of string (* jal x0, label *)
  | Call_l of string (* call: jal ra / auipc+jalr relaxation *)
  | Tail_l of string (* tail call: jal x0 / auipc+jalr x0 *)
  | La of Reg.t * string (* load address, pc-relative *)
  | Li of Reg.t * int64
  | Raw of string (* literal bytes *)
  | D8 of int
  | D32 of int32
  | D64 of int64
  | Align of int

exception Undefined_label of string

(* Split a pc-relative offset into (hi20, lo12) for auipc/addi pairs. *)
let pcrel_hi_lo off =
  let lo = Bits.sign_extend (Int64.to_int (Int64.logand off 0xFFFL)) 12 in
  let hi20 =
    Int64.to_int (Int64.shift_right (Int64.sub off (Int64.of_int lo)) 12)
    land 0xFFFFF
  in
  (hi20, lo)

type result = {
  code : Bytes.t;
  labels : (string, int64) Hashtbl.t; (* label -> absolute address *)
}

(* Assemble [items] for load address [base].  [symbols] provides external
   label addresses (e.g. data objects laid out elsewhere). *)
let assemble ?(base = 0L) ?(symbols = fun (_ : string) -> (None : int64 option))
    (items : item list) : result =
  (* size of an item given current size guesses; [addr_of] resolves labels
     or raises Not_found during sizing (callers treat unknown-yet labels
     as worst case). *)
  let items = Array.of_list items in
  let n = Array.length items in
  (* sizes.(k) = current byte size of item k *)
  let sizes = Array.make n 0 in
  let li_size rd v = 4 * List.length (Build.li rd v) in
  let initial_size = function
    | Insn _ -> 4 (* always emitted in the uncompressed form *)
    | Label _ -> 0
    | Br (_, _, _, _) -> 4
    | J _ -> 4
    | Call_l _ -> 4
    | Tail_l _ -> 4
    | La (_, _) -> 8
    | Li (rd, v) -> li_size rd v
    | Raw s -> String.length s
    | D8 _ -> 1
    | D32 _ -> 4
    | D64 _ -> 8
    | Align a -> a (* worst case until addresses settle *)
  in
  Array.iteri (fun k it -> sizes.(k) <- initial_size it) items;
  (* iterate: compute addresses, then re-size relaxable items *)
  let offsets = Array.make n 0L in
  let compute_offsets () =
    let cur = ref base in
    for k = 0 to n - 1 do
      (match items.(k) with
      | Align a -> sizes.(k) <- Int64.to_int (Int64.sub (Bits.align_up !cur a) !cur)
      | _ -> ());
      offsets.(k) <- !cur;
      cur := Int64.add !cur (Int64.of_int sizes.(k))
    done
  in
  let label_table () =
    let h = Hashtbl.create 16 in
    for k = 0 to n - 1 do
      match items.(k) with
      | Label l -> Hashtbl.replace h l offsets.(k)
      | _ -> ()
    done;
    h
  in
  let resolve h l =
    match Hashtbl.find_opt h l with
    | Some a -> a
    | None -> (
        match symbols l with Some a -> a | None -> raise (Undefined_label l))
  in
  let changed = ref true in
  let iterations = ref 0 in
  while !changed do
    incr iterations;
    if !iterations > 32 then failwith "Asm.assemble: relaxation did not converge";
    changed := false;
    compute_offsets ();
    let h = label_table () in
    for k = 0 to n - 1 do
      let need =
        match items.(k) with
        | Br (_, _, _, l) ->
            (* near: 4-byte branch; far: inverted branch over a jal (8);
               very far: inverted branch over auipc+jalr (12) *)
            let off = Int64.sub (resolve h l) offsets.(k) in
            if Bits.fits_signed off 13 then 4
            else if Bits.fits_signed (Int64.sub off 4L) 21 then 8
            else 12
        | J l | Tail_l l ->
            let off = Int64.sub (resolve h l) offsets.(k) in
            if Bits.fits_signed off 21 then 4 else 12 (* auipc+jalr via t1 *)
        | Call_l l ->
            let off = Int64.sub (resolve h l) offsets.(k) in
            if Bits.fits_signed off 21 then 4 else 8
        | _ -> sizes.(k)
      in
      if need > sizes.(k) then begin
        sizes.(k) <- need;
        changed := true
      end
    done
  done;
  compute_offsets ();
  let h = label_table () in
  let buf = Buffer.create 1024 in
  let emit i = Buffer.add_bytes buf (Encode.encode i) in
  for k = 0 to n - 1 do
    let addr = offsets.(k) in
    (match items.(k) with
    | Insn i -> emit i
    | Label _ -> ()
    | Br (op, rs1, rs2, l) ->
        let off = Int64.sub (resolve h l) addr in
        if sizes.(k) = 4 then
          emit (Insn.make ~rs1 ~rs2 ~imm:off op)
        else begin
          (* invert the condition and hop over a longer jump *)
          let inv =
            match op with
            | Op.BEQ -> Op.BNE
            | Op.BNE -> Op.BEQ
            | Op.BLT -> Op.BGE
            | Op.BGE -> Op.BLT
            | Op.BLTU -> Op.BGEU
            | Op.BGEU -> Op.BLTU
            | _ -> invalid_arg "Asm: not a branch op"
          in
          emit (Insn.make ~rs1 ~rs2 ~imm:(Int64.of_int (sizes.(k) - 4 + 4)) inv);
          let off = Int64.sub (resolve h l) (Int64.add addr 4L) in
          if sizes.(k) = 8 then emit (Build.jal Reg.zero (Int64.to_int off))
          else begin
            let hi, lo = pcrel_hi_lo off in
            emit (Build.auipc Reg.t1 hi);
            emit (Build.jalr Reg.zero Reg.t1 lo)
          end
        end
    | J l | Tail_l l ->
        let off = Int64.sub (resolve h l) addr in
        if sizes.(k) = 4 then emit (Build.jal Reg.zero (Int64.to_int off))
        else begin
          let hi, lo = pcrel_hi_lo off in
          emit (Build.auipc Reg.t1 hi);
          emit (Build.jalr Reg.zero Reg.t1 lo);
          emit Build.nop (* keep size 12 as relaxed *)
        end
    | Call_l l ->
        let off = Int64.sub (resolve h l) addr in
        if sizes.(k) = 4 then emit (Build.jal Reg.ra (Int64.to_int off))
        else begin
          let hi, lo = pcrel_hi_lo off in
          emit (Build.auipc Reg.t1 hi);
          emit (Build.jalr Reg.ra Reg.t1 lo)
        end
    | La (rd, l) ->
        let off = Int64.sub (resolve h l) addr in
        let hi, lo = pcrel_hi_lo off in
        emit (Build.auipc rd hi);
        emit (Build.addi rd rd lo)
    | Li (rd, v) -> List.iter emit (Build.li rd v)
    | Raw s -> Buffer.add_string buf s
    | D8 v -> Byte_buf.w_u8 buf v
    | D32 v -> Buffer.add_int32_le buf v
    | D64 v -> Buffer.add_int64_le buf v
    | Align _ ->
        for _ = 1 to sizes.(k) do
          Buffer.add_char buf '\000'
        done);
    (* sanity: emitted size must match computed size *)
    let emitted =
      Int64.sub (Int64.add base (Int64.of_int (Buffer.length buf))) addr
    in
    assert (emitted = Int64.of_int sizes.(k))
  done;
  { code = Buffer.to_bytes buf; labels = h }

let label_addr result l =
  match Hashtbl.find_opt result.labels l with
  | Some a -> a
  | None -> raise (Undefined_label l)
