(* CodeGenAPI (paper §2.2, §3.2.5): lower machine-independent snippet
   ASTs to RV64GC instruction sequences.

   Extension awareness: the target profile (discovered by SymtabAPI) is
   consulted before emitting instructions from optional extensions —
   e.g. a [Divide] snippet on a profile without M is a [Codegen_error]
   rather than an illegal instruction in the mutatee (paper §3.1.1).

   The code is what a compiler would emit for the snippet ("optimize the
   code when possible", paper §3.2.5):
     - expressions are evaluated Sethi–Ullman style, the deeper operand
       first, so [Snippet.regs_needed] scratch registers always suffice;
     - a constant right operand that fits selects the immediate form
       (addi, andi, ori, xori, slli, srli, slti), a zero operand reads
       x0, and a mutatee register is read in place, never copied first;
     - a constant part of an address — a data-area variable's, or the
       [k] of [base + k] — folds into the load's or store's 12-bit
       offset, through one lui of the page when it does not fit;
     - an If or While condition that compares compiles to one branch;
     - every scratch register remembers the values it holds, so a later
       statement reuses a data page or a ring slot base instead of
       recomputing it.  A store forgets what it may overwrite (a small
       interval analysis tells ring slots from ring indices), a syscall
       or call forgets everything read from memory, and control-flow
       joins keep only what every path agrees on. *)

open Riscv

exception Codegen_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Codegen_error s)) fmt

type ctx = {
  profile : Ext.profile;
  scratch : Reg.t list; (* integer registers free for snippet evaluation *)
  mutable label_counter : int;
  label_prefix : string;
  sp_bias : int; (* bytes the caller moved sp down before the snippet *)
}

let create_ctx ?(label_prefix = "snip") ?(sp_bias = 0) ~profile ~scratch () =
  (* snippet scratch registers must be integer and not sp/zero *)
  List.iter
    (fun r ->
      if not (Reg.is_int r) || r = Reg.zero || r = Reg.sp then
        fail "bad scratch register %s" (Reg.name r))
    scratch;
  { profile; scratch; label_counter = 0; label_prefix; sp_bias }

let fresh_label ctx tag =
  ctx.label_counter <- ctx.label_counter + 1;
  Printf.sprintf ".L%s_%s%d" ctx.label_prefix tag ctx.label_counter

let require ctx ext what =
  if not (Ext.supports ctx.profile ext) then
    fail "%s requires the %s extension, absent from target profile %s" what
      (Ext.name ext) (Ext.arch_string ctx.profile)

let load_op = function
  | 1 -> Op.LBU
  | 2 -> Op.LHU
  | 4 -> Op.LWU
  | 8 -> Op.LD
  | w -> fail "bad load width %d" w

let store_op = function
  | 1 -> Op.SB
  | 2 -> Op.SH
  | 4 -> Op.SW
  | 8 -> Op.SD
  | w -> fail "bad store width %d" w

let fits12 v = Dyn_util.Bits.fits_signed v 12
let imm v = Int64.to_int v

(* The low 12 bits of [v], sign-extended: [v - lo12 v] is a lui page. *)
let lo12 v = Int64.of_int (Dyn_util.Bits.sign_extend (Int64.to_int (Int64.logand v 0xFFFL)) 12)

(* --- values -------------------------------------------------------------------- *)

(* [split e] is [(base, k)] with [e = base + k]: the constant part of an
   address, peeled off for a load's or store's offset. *)
let rec split (e : Snippet.expr) : Snippet.expr option * int64 =
  match e with
  | Snippet.Const c -> (None, c)
  | Snippet.Bin (Snippet.Plus, a, Snippet.Const c)
  | Snippet.Bin (Snippet.Plus, Snippet.Const c, a) ->
      let b, k = split a in
      (b, Int64.add k c)
  | Snippet.Bin (Snippet.Minus, a, Snippet.Const c) ->
      let b, k = split a in
      (b, Int64.sub k c)
  | e -> (Some e, 0L)

let rec has_cycle (e : Snippet.expr) =
  match e with
  | Snippet.Cycle -> true
  | Snippet.Const _ | Snippet.Var _ | Snippet.Reg _ | Snippet.Param _ -> false
  | Snippet.Load (_, a) | Snippet.Not a -> has_cycle a
  | Snippet.Bin (_, a, b) -> has_cycle a || has_cycle b

(* Signed bounds of a value, when small enough to add without overflow:
   enough to see that a ring slot store cannot touch the ring's
   indices. *)
let range (e : Snippet.expr) : (int64 * int64) option =
  let lim = Int64.shift_left 1L 62 in
  let bounded (lo, hi) =
    if Int64.compare lo (Int64.neg lim) >= 0 && Int64.compare hi lim <= 0 then Some (lo, hi)
    else None
  in
  let unsigned bytes = Some (0L, Int64.pred (Int64.shift_left 1L (8 * bytes))) in
  let rec go (e : Snippet.expr) =
    match e with
    | Snippet.Const c -> bounded (c, c)
    | Snippet.Var v when v.Snippet.v_size < 8 -> unsigned v.Snippet.v_size
    | Snippet.Load (w, _) when w < 8 -> unsigned w
    | Snippet.Not _
    | Snippet.Bin ((Snippet.Eq | Snippet.Ne | Snippet.Lt | Snippet.Le | Snippet.Gt | Snippet.Ge), _, _)
      ->
        Some (0L, 1L)
    | Snippet.Bin (Snippet.BAnd, _, Snippet.Const m) when Int64.compare m 0L >= 0 -> Some (0L, m)
    | Snippet.Bin (Snippet.BAnd, Snippet.Const m, _) when Int64.compare m 0L >= 0 -> Some (0L, m)
    | Snippet.Bin (Snippet.Plus, a, b) -> (
        match (go a, go b) with
        | Some (la, ha), Some (lb, hb) -> bounded (Int64.add la lb, Int64.add ha hb)
        | _ -> None)
    | Snippet.Bin (Snippet.Minus, a, b) -> (
        match (go a, go b) with
        | Some (la, ha), Some (lb, hb) -> bounded (Int64.sub la hb, Int64.sub ha lb)
        | _ -> None)
    | Snippet.Bin (Snippet.Shl, a, Snippet.Const k) -> (
        let k = Int64.to_int k land 63 in
        match go a with
        | Some (lo, hi)
          when Int64.compare lo 0L >= 0 && k < 62
               && Int64.compare hi (Int64.shift_left 1L (62 - k)) < 0 ->
            Some (Int64.shift_left lo k, Int64.shift_left hi k)
        | _ -> None)
    | Snippet.Bin (Snippet.Shr, a, Snippet.Const k) -> (
        let k = Int64.to_int k land 63 in
        match go a with
        | Some (lo, hi) when Int64.compare lo 0L >= 0 ->
            Some (Int64.shift_right_logical lo k, Int64.shift_right_logical hi k)
        | _ -> None)
    | _ -> None
  in
  go e

(* The memory a [width]-byte access at [addr] may touch, [lo, hi);
   [None] = anywhere. *)
let footprint width addr =
  Option.map (fun (lo, hi) -> (lo, Int64.add hi (Int64.of_int width))) (range addr)

let overlaps (l1, h1) (l2, h2) = Int64.compare l1 h2 < 0 && Int64.compare l2 h1 < 0

(* Can a store to [fp] ([None] = anywhere) change the value of [e]? *)
let rec stale fp (e : Snippet.expr) =
  match e with
  | Snippet.Var v -> (
      match fp with
      | Some fp ->
          overlaps (v.Snippet.v_addr, Int64.add v.Snippet.v_addr (Int64.of_int v.Snippet.v_size)) fp
      | None -> true)
  | Snippet.Load (w, a) -> (
      (match (footprint w a, fp) with Some r, Some fp -> overlaps r fp | _ -> true) || stale fp a)
  | Snippet.Bin (_, a, b) -> stale fp a || stale fp b
  | Snippet.Not a -> stale fp a
  | Snippet.Const _ | Snippet.Reg _ | Snippet.Param _ | Snippet.Cycle -> false

(* Does [Bin (op, x, Const c)] lower to an immediate form, leaving no
   register for [c]? *)
let takes_imm (op : Snippet.binop) c =
  match op with
  | Snippet.Plus | Snippet.BAnd | Snippet.BOr | Snippet.BXor | Snippet.Lt | Snippet.Ge -> fits12 c
  | Snippet.Minus | Snippet.Eq | Snippet.Ne -> fits12 (Int64.neg c)
  | Snippet.Shl | Snippet.Shr -> true
  | Snippet.Le -> c <> Int64.max_int && fits12 (Int64.succ c)
  | Snippet.Times | Snippet.Divide | Snippet.Mod | Snippet.Gt -> false

(* The immediate form of [rd := rx op c], when [takes_imm op c]. *)
let imm_form (op : Snippet.binop) c rd rx =
  let c = Int64.to_int c in
  match op with
  | Snippet.Plus -> [ Build.addi rd rx c ]
  | Snippet.Minus -> [ Build.addi rd rx (-c) ]
  | Snippet.BAnd -> [ Build.andi rd rx c ]
  | Snippet.BOr -> [ Build.ori rd rx c ]
  | Snippet.BXor -> [ Build.xori rd rx c ]
  | Snippet.Shl -> [ Build.slli rd rx (c land 63) ]
  | Snippet.Shr -> [ Build.srli rd rx (c land 63) ]
  | Snippet.Lt -> [ Build.slti rd rx c ]
  | Snippet.Ge -> [ Build.slti rd rx c; Build.xori rd rd 1 ]
  | Snippet.Le -> [ Build.slti rd rx (c + 1) ]
  | Snippet.Eq when c = 0 -> [ Build.seqz rd rx ]
  | Snippet.Ne when c = 0 -> [ Build.snez rd rx ]
  | Snippet.Eq -> [ Build.addi rd rx (-c); Build.seqz rd rd ]
  | Snippet.Ne -> [ Build.addi rd rx (-c); Build.snez rd rd ]
  | Snippet.Times | Snippet.Divide | Snippet.Mod | Snippet.Gt ->
      invalid_arg "Codegen.imm_form"

(* --- the generator's state ---------------------------------------------------------- *)

(* A scratch register: the values it is known to hold, whether one of
   them has served as an address base, how many pending operations read
   it, and when it was last used. *)
type slot = {
  reg : Reg.t;
  mutable keys : Snippet.expr list;
  mutable base : bool;
  mutable pins : int;
  mutable stamp : int;
}

type gen = {
  ctx : ctx;
  slots : slot array;
  mutable clock : int;
  mutable bias : int; (* sp's distance below the mutatee's sp *)
  mutable code : Asm.item list; (* reversed *)
}

(* An evaluated operand: a register, the scratch slot behind it (none
   for x0 and mutatee registers), and whether this evaluation computed
   it rather than finding it in a register. *)
type operand = { r : Reg.t; slot : slot option; fresh : bool }

let emit g item = g.code <- item :: g.code
let insn g i = emit g (Asm.Insn i)

let touch g s =
  g.clock <- g.clock + 1;
  s.stamp <- g.clock

let near k c = fits12 (Int64.sub c k)

(* Does li build [c] in one instruction (addi or lui)? *)
let one_insn c =
  fits12 c || (Dyn_util.Bits.fits_signed c 32 && Int64.logand c 0xFFFL = 0L)

(* A scratch register for a new value: a fresh operand of the operation
   being emitted (its value was an intermediate), else an empty one, else
   the least recently used one that is no address base (data pages and
   ring slot bases are what later statements reuse), else the least
   recently used. *)
let alloc ?(prefer = []) g =
  let rank s =
    if List.memq s prefer then 0 else if s.keys = [] then 1 else if not s.base then 2 else 3
  in
  let best = ref (-1) and best_rank = ref max_int in
  Array.iteri
    (fun i s ->
      if s.pins = 0 then begin
        let r = rank s in
        if r < !best_rank || (r = !best_rank && s.stamp < g.slots.(!best).stamp) then begin
          best := i;
          best_rank := r
        end
      end)
    g.slots;
  if !best < 0 then fail "out of scratch registers (snippet too complex for this point)";
  let s = g.slots.(!best) in
  s.keys <- [];
  s.base <- false;
  s.pins <- 1;
  touch g s;
  s

let release o = Option.iter (fun s -> s.pins <- s.pins - 1) o.slot

(* Fresh operands holding intermediate values: where a result goes. *)
let reusable ops =
  List.filter_map
    (fun o -> match o.slot with Some s when o.fresh && not s.base -> Some s | _ -> None)
    ops

let learn s (e : Snippet.expr) = if not (has_cycle e) then s.keys <- e :: s.keys
let hit g s = s.pins <- s.pins + 1; touch g s; { r = s.reg; slot = Some s; fresh = false }
let fixed r = { r; slot = None; fresh = false }

let find g p =
  let rec go i =
    if i = Array.length g.slots then None
    else
      let s = g.slots.(i) in
      match p s with Some x -> Some (s, x) | None -> go (i + 1)
  in
  go 0

let lookup g e = Array.find_opt (fun s -> List.mem e s.keys) g.slots

(* A register holding a constant within a 12-bit offset of [c]. *)
let near_const g c =
  find g (fun s ->
      List.find_map
        (function Snippet.Const k when near k c -> Some (Int64.sub c k) | _ -> None)
        s.keys)

(* Forget every value a store to [fp] may change ([None] = anything in
   memory). *)
let clobber_memory g fp =
  let fresh k = not (stale fp k) in
  Array.iter (fun s -> if not (List.for_all fresh s.keys) then s.keys <- List.filter fresh s.keys) g.slots

let snapshot g = Array.map (fun s -> s.keys) g.slots
let restore g snap = Array.iteri (fun i s -> s.keys <- snap.(i)) g.slots

(* [o] addresses memory: worth keeping for the accesses that follow. *)
let as_base o = Option.iter (fun s -> s.base <- true) o.slot; o

(* What both paths into a join agree on. *)
let meet g other =
  Array.iteri (fun i s -> s.keys <- List.filter (fun k -> List.mem k other.(i)) s.keys) g.slots

(* --- expressions ----------------------------------------------------------------------- *)

let rec operand g (e : Snippet.expr) : operand =
  match e with
  | Snippet.Const 0L -> fixed Reg.zero
  | Snippet.Reg r when Reg.is_int r && (r <> Reg.sp || g.bias = 0) -> fixed r
  | Snippet.Param n when n >= 0 && n <= 7 -> fixed (Reg.a0 + n)
  | _ -> (
      match lookup g e with
      | Some s -> hit g s
      | None -> compute g e)

(* Evaluate [e] into a newly allocated scratch register. *)
and compute g (e : Snippet.expr) : operand =
  let into ?(prefer = []) k =
    let s = alloc ~prefer g in
    k s.reg;
    learn s e;
    { r = s.reg; slot = Some s; fresh = true }
  in
  match e with
  | Snippet.Const c -> (
      match if one_insn c then None else near_const g c with
      | Some (src, d) ->
          (* derive [c] from a nearby constant, in place unless that one
             is an address base *)
          let prefer = if src.base then [] else [ src ] in
          let base = src.reg in
          touch g src;
          into ~prefer (fun rd -> insn g (Build.addi rd base (imm d)))
      | None -> into (fun rd -> emit g (Asm.Li (rd, c))))
  | Snippet.Var v ->
      let base, lo = const_base g v.Snippet.v_addr in
      release base;
      into ~prefer:(reusable [ base ]) (fun rd ->
          insn g (Build.load (load_op v.Snippet.v_size) rd (imm lo) base.r))
  | Snippet.Reg r when Reg.is_int r -> into (fun rd -> insn g (Build.addi rd r g.bias))
  | Snippet.Reg r ->
      require g.ctx Ext.D "reading an FP register";
      into (fun rd -> insn g (Build.fmv_x_d rd r))
  | Snippet.Param n -> fail "Param %d out of range" n
  | Snippet.Cycle ->
      require g.ctx Ext.Zicsr "reading the cycle CSR";
      into (fun rd -> insn g (Build.rdcycle rd))
  | Snippet.Load (w, a) ->
      let base, off = address g a in
      release base;
      into ~prefer:(reusable [ base ]) (fun rd ->
          insn g (Build.load (load_op w) rd (imm off) base.r))
  | Snippet.Not a ->
      let oa = operand g a in
      release oa;
      into ~prefer:(reusable [ oa ]) (fun rd -> insn g (Build.seqz rd oa.r))
  | Snippet.Bin (op, a, b) -> binop g e op a b

and binop g e op a b =
  let unary a f =
    let oa = operand g a in
    release oa;
    let s = alloc ~prefer:(reusable [ oa ]) g in
    List.iter (insn g) (f s.reg oa.r);
    learn s e;
    { r = s.reg; slot = Some s; fresh = true }
  in
  let open Snippet in
  let swappable c x = c <> 0L && fits12 c && match x with Const _ -> false | _ -> true in
  match (op, a, b) with
  | (Plus | BAnd | BOr | BXor | Eq | Ne), Const c, x when swappable c x -> binop g e op x (Const c)
  | _, x, Const c when takes_imm op c -> unary x (imm_form op c)
  | _ ->
      let oa, ob = operands g a b in
      release oa;
      release ob;
      let s = alloc ~prefer:(reusable [ oa; ob ]) g in
      List.iter (insn g) (register_op g.ctx s.reg op oa.r ob.r);
      learn s e;
      { r = s.reg; slot = Some s; fresh = true }

(* Both operands of a binary operation, the one needing more registers
   evaluated first, so that [Snippet.expr_regs_needed] registers do. *)
and operands g a b =
  if Snippet.expr_regs_needed b > Snippet.expr_regs_needed a then
    let ob = operand g b in
    (operand g a, ob)
  else
    let oa = operand g a in
    (oa, operand g b)

and register_op ctx rd op ra rb =
  match op with
  | Snippet.Plus -> [ Build.add rd ra rb ]
  | Snippet.Minus -> [ Build.sub rd ra rb ]
  | Snippet.Times ->
      require ctx Ext.M "multiplication";
      [ Build.mul rd ra rb ]
  | Snippet.Divide ->
      require ctx Ext.M "division";
      [ Build.div rd ra rb ]
  | Snippet.Mod ->
      require ctx Ext.M "remainder";
      [ Build.rem rd ra rb ]
  | Snippet.BAnd -> [ Build.and_ rd ra rb ]
  | Snippet.BOr -> [ Build.or_ rd ra rb ]
  | Snippet.BXor -> [ Build.xor rd ra rb ]
  | Snippet.Shl -> [ Build.sll rd ra rb ]
  | Snippet.Shr -> [ Build.srl rd ra rb ]
  | Snippet.Eq -> [ Build.sub rd ra rb; Build.seqz rd rd ]
  | Snippet.Ne -> [ Build.sub rd ra rb; Build.snez rd rd ]
  | Snippet.Lt -> [ Build.slt rd ra rb ]
  | Snippet.Ge -> [ Build.slt rd ra rb; Build.xori rd rd 1 ]
  | Snippet.Gt -> [ Build.slt rd rb ra ]
  | Snippet.Le -> [ Build.slt rd rb ra; Build.xori rd rd 1 ]

(* A base register and 12-bit offset reaching absolute address [addr]:
   a register already holding a nearby constant, else the lui page. *)
and const_base g addr =
  match near_const g addr with
  | Some (s, lo) -> (as_base (hit g s), lo)
  | None ->
      let lo = lo12 addr in
      (as_base (operand g (Snippet.Const (Int64.sub addr lo))), lo)

(* A base register and 12-bit offset reaching the address [a]. *)
and address g a =
  match split a with
  | None, k -> const_base g k
  | Some b, k when fits12 k -> (as_base (operand g b), k)
  | Some b, k -> (
      let cached =
        find g (fun s ->
            List.find_map
              (function
                | Snippet.Bin (Snippet.Plus, b', Snippet.Const k') when b' = b && near k' k ->
                    Some (Int64.sub k k')
                | _ -> None)
              s.keys)
      in
      match cached with
      | Some (s, lo) -> (as_base (hit g s), lo)
      | None ->
          let lo = lo12 k in
          let page = Int64.sub k lo in
          (as_base (operand g (Snippet.Bin (Snippet.Plus, b, Snippet.Const page))), lo))

(* --- conditions --------------------------------------------------------------------- *)

(* Branch to [target] when [c] is false: a comparison is one branch. *)
let branch_unless g (c : Snippet.expr) target =
  let two a b k =
    let oa, ob = operands g a b in
    release oa;
    release ob;
    let op, r1, r2 = k oa.r ob.r in
    emit g (Asm.Br (op, r1, r2, target))
  in
  match c with
  | Snippet.Bin (Snippet.Lt, a, b) -> two a b (fun ra rb -> (Op.BGE, ra, rb))
  | Snippet.Bin (Snippet.Ge, a, b) -> two a b (fun ra rb -> (Op.BLT, ra, rb))
  | Snippet.Bin (Snippet.Gt, a, b) -> two a b (fun ra rb -> (Op.BGE, rb, ra))
  | Snippet.Bin (Snippet.Le, a, b) -> two a b (fun ra rb -> (Op.BLT, rb, ra))
  | Snippet.Bin (Snippet.Eq, a, b) -> two a b (fun ra rb -> (Op.BNE, ra, rb))
  | Snippet.Bin (Snippet.Ne, a, b) -> two a b (fun ra rb -> (Op.BEQ, ra, rb))
  | Snippet.Not a ->
      let oa = operand g a in
      release oa;
      emit g (Asm.Br (Op.BNE, oa.r, Reg.zero, target))
  | c ->
      let oc = operand g c in
      release oc;
      emit g (Asm.Br (Op.BEQ, oc.r, Reg.zero, target))

(* --- statements ---------------------------------------------------------------------- *)

(* caller-saved integer registers + ra, saved around snippet Calls *)
let call_saved = Reg.ra :: Reg.temp_regs @ Reg.arg_regs

let frame_size words = Int64.to_int (Dyn_util.Bits.align_up (Int64.of_int (8 * words)) 16)

(* Save [saved] in a new frame below sp, pass [args] in a0.., run
   [invoke], restore.  With two or more arguments each is evaluated and
   parked in the frame before any a-register is written, so no argument
   can clobber another or read a clobbered one.  Afterwards the saved
   scratch registers hold what they held before, and nothing read from
   memory is trusted. *)
let with_args g ~saved args invoke =
  let staged = List.length args >= 2 in
  let n = List.length saved in
  let frame = frame_size (n + if staged then List.length args else 0) in
  insn g (Build.addi Reg.sp Reg.sp (-frame));
  List.iteri (fun k r -> insn g (Build.sd r (8 * k) Reg.sp)) saved;
  g.bias <- g.bias + frame;
  let before = snapshot g in
  let pass k e =
    let dst = Reg.a0 + k in
    let o = operand g e in
    release o;
    if staged then insn g (Build.sd o.r (8 * (n + k)) Reg.sp)
    else if o.r <> dst then insn g (Build.mv dst o.r)
  in
  List.iteri pass args;
  if staged then List.iteri (fun k _ -> insn g (Build.ld (Reg.a0 + k) (8 * (n + k)) Reg.sp)) args;
  invoke ();
  List.iteri (fun k r -> insn g (Build.ld r (8 * k) Reg.sp)) saved;
  insn g (Build.addi Reg.sp Reg.sp frame);
  g.bias <- g.bias - frame;
  Array.iteri (fun i s -> if List.mem s.reg saved then s.keys <- before.(i)) g.slots;
  clobber_memory g None

let rec gen_stmt g (s : Snippet.stmt) =
  match s with
  | Snippet.Nop -> ()
  | Snippet.Set (v, e) ->
      let ov = operand g e in
      let base, lo = const_base g v.Snippet.v_addr in
      insn g (Build.store (store_op v.Snippet.v_size) ov.r (imm lo) base.r);
      release ov;
      release base;
      clobber_memory g
        (Some (v.Snippet.v_addr, Int64.add v.Snippet.v_addr (Int64.of_int v.Snippet.v_size)));
      (* an 8-byte variable now reads back as the stored register *)
      if v.Snippet.v_size = 8 then Option.iter (fun s -> learn s (Snippet.Var v)) ov.slot
  | Snippet.Store (w, a, value) ->
      let (base, off), ov =
        if Snippet.expr_regs_needed value > Snippet.expr_regs_needed a then
          let ov = operand g value in
          (address g a, ov)
        else
          let ba = address g a in
          (ba, operand g value)
      in
      insn g (Build.store (store_op w) ov.r (imm off) base.r);
      release ov;
      release base;
      clobber_memory g (footprint w a)
  | Snippet.If (c, then_b, else_b) ->
      let l_else = fresh_label g.ctx "else" in
      branch_unless g c l_else;
      let at_branch = snapshot g in
      List.iter (gen_stmt g) then_b;
      if else_b = [] then begin
        emit g (Asm.Label l_else);
        meet g at_branch
      end
      else begin
        let l_end = fresh_label g.ctx "end" in
        emit g (Asm.J l_end);
        emit g (Asm.Label l_else);
        let after_then = snapshot g in
        restore g at_branch;
        List.iter (gen_stmt g) else_b;
        emit g (Asm.Label l_end);
        meet g after_then
      end
  | Snippet.While (c, body) ->
      let l_loop = fresh_label g.ctx "loop" and l_end = fresh_label g.ctx "end" in
      (* the back edge joins here knowing nothing *)
      Array.iter (fun s -> s.keys <- []) g.slots;
      emit g (Asm.Label l_loop);
      branch_unless g c l_end;
      let at_exit = snapshot g in
      List.iter (gen_stmt g) body;
      emit g (Asm.J l_loop);
      emit g (Asm.Label l_end);
      restore g at_exit
  | Snippet.Call (faddr, args) ->
      if List.length args > 8 then fail "more than 8 call arguments";
      (* every caller-saved register (and ra) is saved around the call;
         the mutatee's state must be transparent to instrumentation *)
      with_args g ~saved:call_saved args (fun () ->
          emit g (Asm.Li (Reg.t0, faddr));
          insn g (Build.call_reg Reg.t0))
  | Snippet.Scall (num, args) ->
      if List.length args > 6 then fail "more than 6 syscall arguments";
      (* an ecall only clobbers the a-registers it uses: the argument
         registers, a7 (the number) and a0 (the return value) *)
      let saved = Reg.a7 :: List.init (max 1 (List.length args)) (fun k -> Reg.a0 + k) in
      with_args g ~saved args (fun () ->
          emit g (Asm.Li (Reg.a7, Int64.of_int num));
          insn g Build.ecall)

(* Generate the full item sequence for a snippet.  [ctx.scratch] must
   provide at least [Snippet.regs_needed] registers (PatchAPI arranges
   this, spilling if the liveness analysis found too few dead ones). *)
let generate ctx (stmts : Snippet.stmt list) : Asm.item list =
  let needed = Snippet.regs_needed stmts in
  if List.length ctx.scratch < needed then
    fail "snippet needs %d scratch registers, %d available" needed
      (List.length ctx.scratch);
  let g =
    {
      ctx;
      slots =
        Array.of_list
          (List.map (fun reg -> { reg; keys = []; base = false; pins = 0; stamp = 0 }) ctx.scratch);
      clock = 0;
      bias = ctx.sp_bias;
      code = [];
    }
  in
  List.iter (gen_stmt g) stmts;
  List.rev g.code
