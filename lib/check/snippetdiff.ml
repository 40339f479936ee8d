(* The rvcheck snippet leg: CodeGenAPI against the snippet AST it lowers.

   A case `snippet:SEED` generates a random snippet — every Snippet
   constructor and binop, plus the two shapes instrumentation plants
   most, Snippet.incr counters and TraceAPI Ring.emit records — and a
   random register file, data area and cycle CSR.  One side evaluates
   the AST with the small concrete reference evaluator below; the other
   lowers it with Codegen.generate given exactly Snippet.regs_needed
   scratch registers, assembles it and runs it on Rvsim.Machine.  The
   two must agree on every data-area byte, every register outside the
   scratch set, the syscalls raised (number and arguments, in order) and
   how often the cycle CSR was read.

   The world both sides share:
     - the data area [data_base, data_base + data_size): variables, ring
       buffers and every Load/Store address lie inside it;
     - the leg's OS: each syscall is logged with its arguments and bumps
       the 8-byte OS word at data_base, so a value read before a syscall
       is stale after it, as TraceAPI's flushed index is after a flush;
     - mutatee functions for Call: callee k takes k arguments, folds
       them into the call word at data_base + 8 and clobbers every
       caller-saved register but ra, as the psABI allows;
     - a zero-cost timing model, so the cycle CSR reads one constant on
       both sides. *)

open Riscv
module S = Codegen_api.Snippet

(* --- the world -------------------------------------------------------------- *)

let code_base = 0x10000L
let callee_base = 0x20000L
let stack_top = 0x7F00_0000L
let data_size = 0x10000

(* Bytes [0, heap) of the data area hold the OS word, the call word,
   loop counters, ring indices and a pointer into the heap; only
   [heap, data_size) is stored to by Set and Store, so no random store
   can break a loop's bound or the pointer. *)
let heap = 0x100
let os_word = 0
let call_word = 8
let loop_word k = 16 + (8 * k)
let max_loops = 4
let ring_words k = (0x40 + (16 * k), 0x48 + (16 * k))
let max_rings = 4
let ptr_word = 0x80

(* The pointer's target: far enough inside the heap that any 12-bit
   offset from it stays there. *)
let ptr_lo = heap + 2048
let ptr_hi = data_size - 2048 - 8
let callee k = Int64.add callee_base (Int64.of_int (0x400 * k))

(* Syscall numbers encode their arity, so the OS knows how many
   argument registers to log; TraceAPI's flush keeps its own number. *)
let syscall_arity n =
  if n = Trace_api.Ring.flush_syscall then 1 else (n lsr 4) land 7

let syscall_number g arity = 0x1000 + (arity lsl 4) + Prng.int g 16

type case = {
  data_base : int64;
  data : Bytes.t; (* initial data area *)
  regs : int64 array; (* initial x0..x31 *)
  fregs : int64 array;
  cycle : int64;
  stmts : S.stmt list;
  scratch : Reg.t list;
}

(* --- the generator ------------------------------------------------------------ *)

let binops =
  S.[| Plus; Minus; Times; Divide; Mod; BAnd; BOr; BXor; Shl; Shr; Eq; Ne; Lt; Le; Gt; Ge |]

let gen_const g =
  match Prng.int g 8 with
  | 0 -> Int64.of_int (Prng.range g (-2048) 2047)
  | 1 -> Prng.one_of g [ 0L; 1L; -1L; 2047L; 2048L; -2048L; -2049L; 4095L; 4096L ]
  | 2 -> Int64.of_int (Prng.range g 0 70) (* shift amounts *)
  | 3 -> Int64.pred (Int64.shift_left 1L (Prng.range g 1 20)) (* masks *)
  | 4 -> Int64.of_int32 (Int64.to_int32 (Prng.i64 g))
  | 5 -> Prng.one_of g [ Int64.min_int; Int64.max_int; 0x7FFF_F800L; 0x8000_0000L ]
  | _ -> Prng.i64 g

type env = {
  g : Prng.t;
  base : int64;
  vars : S.var list; (* readable *)
  ptr : S.var; (* holds an address inside the heap *)
  heap_vars : S.var list; (* writable *)
  mutable loops : int;
  mutable rings : int;
}

let addr env off = Int64.add env.base (Int64.of_int off)
let var env name off size = { S.v_name = name; v_addr = addr env off; v_size = size }

let gen_reg g =
  if Prng.chance g 15 then Reg.f (Prng.int g 32)
  else Prng.one_of g [ Reg.zero; Reg.sp; Reg.ra; Reg.x (Prng.range g 3 31) ]

let rec gen_expr env depth : S.expr =
  let g = env.g in
  let leaf () =
    match Prng.int g 10 with
    | 0 | 1 | 2 -> S.Const (gen_const g)
    | 3 | 4 | 5 -> S.Var (Prng.one_of g env.vars)
    | 6 | 7 -> S.Reg (gen_reg g)
    | 8 -> S.Param (Prng.int g 8)
    | _ -> if Prng.chance g 30 then S.Cycle else S.Const (gen_const g)
  in
  if depth <= 0 then leaf ()
  else
    match Prng.int g 10 with
    | 0 | 1 | 2 | 3 | 4 ->
        let op = Prng.choose g binops in
        let b =
          if Prng.chance g 50 then S.Const (gen_const g) else gen_expr env (depth - 1)
        in
        let a = gen_expr env (depth - 1) in
        if Prng.chance g 20 then S.Bin (op, b, a) else S.Bin (op, a, b)
    | 5 -> S.Not (gen_expr env (depth - 1))
    | 6 ->
        let w = Prng.one_of g [ 1; 2; 4; 8 ] in
        S.Load (w, gen_addr env ~width:w (depth - 1))
    | _ -> leaf ()

(* An address of a [width]-byte access inside the heap: an absolute
   constant, the heap pointer plus a 12-bit offset, or a constant base
   plus a masked, scaled index computed from a random expression (a ring
   slot's shape), sometimes offset again. *)
and gen_addr env ~width depth : S.expr =
  let g = env.g in
  let span = data_size - heap - width in
  match Prng.int g 5 with
  | 0 -> S.Const (addr env (heap + (Prng.int g (span / width) * width)))
  | 4 ->
      let k = Prng.range g (-2048) 2047 in
      if Prng.chance g 50 then S.Bin (S.Plus, S.Var env.ptr, S.Const (Int64.of_int k))
      else S.Bin (S.Minus, S.Var env.ptr, S.Const (Int64.of_int (-k)))
  | k ->
      let scale = Prng.range g 0 5 in
      let bits = Prng.range g 0 8 in
      let reach = (1 lsl bits - 1) lsl scale in
      let off = heap + Prng.int g (span - reach + 1) in
      let index =
        S.Bin
          ( S.Shl,
            S.Bin (S.BAnd, gen_expr env depth, S.Const (Int64.of_int (1 lsl bits - 1))),
            S.Const (Int64.of_int scale) )
      in
      if k = 1 then S.Bin (S.Plus, S.Const (addr env off), index)
      else if k = 2 then S.Bin (S.Plus, index, S.Const (addr env off))
      else
        let extra = Int64.of_int (Prng.one_of g [ 8; 24; -16; 2040; 4096; -3000 ]) in
        S.Bin
          ( S.Minus,
            S.Bin (S.Plus, S.Const (Int64.add (addr env off) extra), index),
            S.Const extra )

(* A condition: usually a comparison, sometimes any expression. *)
let gen_cond env =
  let g = env.g in
  if Prng.chance g 70 then
    let op = Prng.one_of g S.[ Eq; Ne; Lt; Le; Gt; Ge ] in
    let b = if Prng.chance g 50 then S.Const (gen_const g) else gen_expr env 1 in
    S.Bin (op, gen_expr env 1, b)
  else if Prng.chance g 30 then S.Not (gen_expr env 1)
  else gen_expr env 2

let gen_args env n = List.init n (fun _ -> gen_expr env (Prng.int env.g 3))

(* A TraceAPI ring over the heap, with indices placed so that a record
   sometimes fills it and raises the flush; sometimes its flushed index
   is the OS word, which every syscall bumps. *)
let gen_ring env =
  let g = env.g in
  let k = env.rings in
  env.rings <- k + 1;
  let w_off, f_off = ring_words k in
  let capacity = 1 lsl Prng.int g 7 in
  let size = capacity * Trace_api.Record.size in
  let buf_off = heap + (Prng.int g ((data_size - heap - size) / 32 + 1) * 32) in
  let flushed =
    if Prng.chance g 30 then var env "os" os_word 8 else var env "flushed" f_off 8
  in
  { Trace_api.Ring.widx = var env "widx" w_off 8; flushed; buf_base = addr env buf_off; capacity }

let rec gen_stmt env depth : S.stmt list =
  let g = env.g in
  match Prng.int g 12 with
  | 0 | 1 -> [ S.Set (Prng.one_of g env.heap_vars, gen_expr env (Prng.range g 0 3)) ]
  | 2 | 3 ->
      let w = Prng.one_of g [ 1; 2; 4; 8 ] in
      [ S.Store (w, gen_addr env ~width:w (Prng.int g 2), gen_expr env (Prng.range g 0 3)) ]
  | 4 when depth > 0 ->
      [ S.If (gen_cond env, gen_block env (depth - 1), gen_block env (depth - 1)) ]
  | 5 when depth > 0 && env.loops < max_loops ->
      (* a counted loop over a counter no other statement writes *)
      let i = var env "i" (loop_word env.loops) 8 in
      env.loops <- env.loops + 1;
      let n = S.Const (Int64.of_int (Prng.int g 4)) in
      [
        S.Set (i, S.Const 0L);
        S.While
          ( S.Bin (S.Lt, S.Var i, n),
            gen_block env (depth - 1) @ [ S.Set (i, S.Bin (S.Plus, S.Var i, S.Const 1L)) ] );
      ]
  | 6 | 7 ->
      (* a call or syscall, sometimes between two reads of the word it
         changes, so that a value kept in a register across it shows *)
      let call = Prng.chance g 50 in
      let s =
        if call then
          let k = Prng.int g 9 in
          S.Call (callee k, gen_args env k)
        else
          let k = Prng.int g 7 in
          S.Scall (syscall_number g k, gen_args env k)
      in
      if Prng.chance g 50 then [ s ]
      else
        let word = S.Var (if call then var env "call" call_word 8 else var env "os" os_word 8) in
        let read () = S.Set (Prng.one_of g env.heap_vars, S.Bin (S.Plus, word, S.Const 1L)) in
        [ read (); s; read () ]
  | 8 -> [ S.incr (Prng.one_of g env.heap_vars) ]
  | 9 | 10 when env.rings < max_rings ->
      let ring = gen_ring env in
      let kind =
        Prng.one_of g Trace_api.Record.[ Block; Call; Ret; Mem_read; Mem_write; Marker ]
      in
      let addr =
        if Prng.chance g 50 then
          S.Bin (S.Plus, S.Reg (Prng.one_of g [ Reg.sp; Reg.s0; Reg.a0; Reg.x 9 ]),
                 S.Const (Int64.of_int (Prng.range g (-2048) 2047)))
        else S.Const (gen_const g)
      in
      let value = if Prng.chance g 70 then S.Const (gen_const g) else gen_expr env 1 in
      Trace_api.Ring.emit ring ~kind ~addr ~value
  | _ -> [ S.Nop ]

and gen_block env depth = List.concat (List.init (Prng.int env.g 3) (fun _ -> gen_stmt env depth))

(* Data bases: low pages as the rewriter allocates them, and a few that
   need more than lui to reach (across the 2^31 sign boundary, above
   2^32). *)
let gen_base g =
  if Prng.chance g 85 then Int64.of_int (0x30_0000 + (0x1000 * Prng.int g 16))
  else Prng.one_of g [ 0x7FFF_8000L; 0x1_2345_6000L; 0x7FF0_0000L ]

let generate ~seed : case =
  let g = Prng.of_seed_index ~seed ~index:0 in
  let base = gen_base g in
  let ptr = { S.v_name = "ptr"; v_addr = Int64.add base (Int64.of_int ptr_word); v_size = 8 } in
  let env0 = { g; base; vars = []; ptr; heap_vars = []; loops = 0; rings = 0 } in
  let heap_vars =
    List.init (Prng.range g 1 6) (fun k ->
        let size = Prng.one_of g [ 1; 2; 4; 8; 8; 8 ] in
        let off = heap + (Prng.int g ((data_size - heap) / size) * size) in
        var env0 (Printf.sprintf "v%d" k) off size)
  in
  let env =
    {
      env0 with
      heap_vars;
      vars = var env0 "os" os_word 8 :: var env0 "call" call_word 8 :: ptr :: heap_vars;
    }
  in
  let stmts = List.concat (List.init (Prng.range g 1 6) (fun _ -> gen_stmt env 2)) in
  let data = Bytes.init data_size (fun _ -> Char.chr (Prng.int g 256)) in
  Bytes.set_int64_le data ptr_word (addr env (Prng.range g ptr_lo ptr_hi));
  (* ring indices: widx anywhere, flushed a little behind it *)
  for k = 0 to env.rings - 1 do
    let w_off, f_off = ring_words k in
    let widx = Int64.of_int (Prng.int g 0x10000) in
    Bytes.set_int64_le data w_off widx;
    Bytes.set_int64_le data f_off (Int64.sub widx (Int64.of_int (Prng.int g 80)))
  done;
  let regs = Array.init 32 (fun r -> if r = 0 then 0L else Prng.i64 g) in
  regs.(Reg.sp) <- Int64.sub stack_top (Int64.of_int (16 * Prng.int g 64));
  let fregs = Array.init 32 (fun _ -> Prng.i64 g) in
  let needed = S.regs_needed stmts in
  let reads = S.reads stmts in
  let pool =
    List.filter
      (fun r -> r <> Reg.zero && r <> Reg.sp && not (List.mem r reads))
      (List.init 32 Reg.x)
  in
  (* a random [needed]-subset of the pool, in random order *)
  let pool = Array.of_list pool in
  for i = Array.length pool - 1 downto 1 do
    let j = Prng.int g (i + 1) in
    let t = pool.(i) in
    pool.(i) <- pool.(j);
    pool.(j) <- t
  done;
  let scratch = Array.to_list (Array.sub pool 0 (min needed (Array.length pool))) in
  {
    data_base = base;
    data;
    regs;
    fregs;
    cycle = Int64.of_int (Prng.int g 1_000_000_000);
    stmts;
    scratch;
  }

(* --- the reference evaluator ---------------------------------------------------- *)

exception Outside of int64

type ref_state = {
  mem : Bytes.t;
  mutable syscalls : (int * int64 list) list; (* newest first *)
  mutable cycle_reads : int;
}

let offset c st a w =
  let off = Int64.sub a c.data_base in
  if Int64.compare off 0L < 0 || Int64.compare off (Int64.of_int (Bytes.length st.mem - w)) > 0
  then raise (Outside a);
  Int64.to_int off

let load c st w a =
  let o = offset c st a w in
  match w with
  | 1 -> Int64.of_int (Bytes.get_uint8 st.mem o)
  | 2 -> Int64.of_int (Bytes.get_uint16_le st.mem o)
  | 4 -> Int64.logand (Int64.of_int32 (Bytes.get_int32_le st.mem o)) 0xFFFF_FFFFL
  | _ -> Bytes.get_int64_le st.mem o

let store c st w a v =
  let o = offset c st a w in
  match w with
  | 1 -> Bytes.set_uint8 st.mem o (Int64.to_int v land 0xFF)
  | 2 -> Bytes.set_uint16_le st.mem o (Int64.to_int v land 0xFFFF)
  | 4 -> Bytes.set_int32_le st.mem o (Int64.to_int32 v)
  | _ -> Bytes.set_int64_le st.mem o v

let bool b = if b then 1L else 0L

(* RV64 semantics: division by zero and the one overflowing quotient
   are defined, shifts use the low six bits of the amount. *)
let binop op a b =
  match op with
  | S.Plus -> Int64.add a b
  | S.Minus -> Int64.sub a b
  | S.Times -> Int64.mul a b
  | S.Divide ->
      if b = 0L then -1L else if a = Int64.min_int && b = -1L then a else Int64.div a b
  | S.Mod -> if b = 0L then a else if a = Int64.min_int && b = -1L then 0L else Int64.rem a b
  | S.BAnd -> Int64.logand a b
  | S.BOr -> Int64.logor a b
  | S.BXor -> Int64.logxor a b
  | S.Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | S.Shr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | S.Eq -> bool (Int64.equal a b)
  | S.Ne -> bool (not (Int64.equal a b))
  | S.Lt -> bool (Int64.compare a b < 0)
  | S.Le -> bool (Int64.compare a b <= 0)
  | S.Gt -> bool (Int64.compare a b > 0)
  | S.Ge -> bool (Int64.compare a b >= 0)

let rec eval c st (e : S.expr) =
  match e with
  | S.Const v -> v
  | S.Var v -> load c st v.S.v_size v.S.v_addr
  | S.Reg r -> if Reg.is_int r then c.regs.(r) else c.fregs.(Reg.fp_index r)
  | S.Param n -> c.regs.(Reg.a0 + n)
  | S.Load (w, a) -> load c st w (eval c st a)
  | S.Bin (op, a, b) ->
      let va = eval c st a in
      binop op va (eval c st b)
  | S.Not a -> bool (eval c st a = 0L)
  | S.Cycle ->
      st.cycle_reads <- st.cycle_reads + 1;
      c.cycle

(* Replace the 8-byte word at data-area offset [off] by [f] of it. *)
let update c st off f =
  let a = Int64.add c.data_base (Int64.of_int off) in
  store c st 8 a (f (load c st 8 a))

let rec exec c st (s : S.stmt) =
  match s with
  | S.Nop -> ()
  | S.Set (v, e) -> store c st v.S.v_size v.S.v_addr (eval c st e)
  | S.Store (w, a, v) ->
      let a = eval c st a in
      store c st w a (eval c st v)
  | S.If (cond, t, e) -> List.iter (exec c st) (if eval c st cond <> 0L then t else e)
  | S.While (cond, body) ->
      while eval c st cond <> 0L do
        List.iter (exec c st) body
      done
  | S.Call (_, args) ->
      let h = List.fold_left (fun h a -> Int64.add (Int64.mul h 31L) (eval c st a)) 0L args in
      update c st call_word (fun v -> Int64.add (Int64.mul v 37L) h)
  | S.Scall (n, args) ->
      let vs = List.map (eval c st) args in
      st.syscalls <- (n, vs) :: st.syscalls;
      update c st os_word Int64.succ

(* --- the machine side ----------------------------------------------------------- *)

(* Callee k: fold a0..a(k-1) into the call word as the evaluator does,
   then clobber every caller-saved register but ra. *)
let callee_items c k =
  let i x = Asm.Insn x in
  [ i (Build.addi Reg.t0 Reg.zero 0) ]
  @ List.concat
      (List.init k (fun j ->
           [
             i (Build.addi Reg.t1 Reg.zero 31);
             i (Build.mul Reg.t0 Reg.t0 Reg.t1);
             i (Build.add Reg.t0 Reg.t0 (Reg.a0 + j));
           ]))
  @ [
      Asm.Li (Reg.t2, Int64.add c.data_base (Int64.of_int call_word));
      i (Build.ld Reg.t1 0 Reg.t2);
      i (Build.addi Reg.t3 Reg.zero 37);
      i (Build.mul Reg.t1 Reg.t1 Reg.t3);
      i (Build.add Reg.t1 Reg.t1 Reg.t0);
      i (Build.sd Reg.t1 0 Reg.t2);
    ]
  @ List.filter_map
      (fun r -> if r = Reg.ra then None else Some (Asm.Li (r, Int64.of_int (0x5EED00 + r))))
      Reg.caller_saved_int
  @ [ i Build.ret ]

let zero_cost = { Rvsim.Cost.p550 with Rvsim.Cost.cost = (fun _ -> 0) }

type run = {
  stop : Rvsim.Machine.stop;
  machine : Rvsim.Machine.t;
  end_pc : int64;
  code : Bytes.t;
  m_syscalls : (int * int64 list) list; (* in order *)
  m_cycle_reads : int;
}

let run_machine c (items : Asm.item list) =
  let code = (Asm.assemble ~base:code_base (items @ [ Asm.Insn Build.ebreak ])).Asm.code in
  let m = Rvsim.Machine.create ~model:zero_cost () in
  let mem = m.Rvsim.Machine.mem in
  Rvsim.Mem.write_bytes mem code_base code;
  ignore (Rvsim.Machine.add_code_region m ~base:code_base ~size:(Bytes.length code));
  for k = 0 to 8 do
    let b = (Asm.assemble ~base:(callee k) (callee_items c k)).Asm.code in
    Rvsim.Mem.write_bytes mem (callee k) b;
    ignore (Rvsim.Machine.add_code_region m ~base:(callee k) ~size:(Bytes.length b))
  done;
  Rvsim.Mem.write_bytes mem c.data_base c.data;
  Array.blit c.regs 0 m.Rvsim.Machine.regs 0 32;
  Array.blit c.fregs 0 m.Rvsim.Machine.fregs 0 32;
  m.Rvsim.Machine.cycles <- c.cycle;
  m.Rvsim.Machine.pc <- code_base;
  let syscalls = ref [] and reads = ref 0 in
  m.Rvsim.Machine.on_ecall <-
    (fun m ->
      let n = Int64.to_int (Rvsim.Machine.get_reg m Reg.a7) in
      let args = List.init (syscall_arity n) (fun k -> Rvsim.Machine.get_reg m (Reg.a0 + k)) in
      syscalls := (n, args) :: !syscalls;
      let os = Int64.add c.data_base (Int64.of_int os_word) in
      Rvsim.Mem.write64 m.Rvsim.Machine.mem os (Int64.succ (Rvsim.Mem.read64 m.Rvsim.Machine.mem os));
      Rvsim.Machine.set_reg m Reg.a0 0xBADL;
      Rvsim.Machine.Ecall_continue);
  m.Rvsim.Machine.trace <-
    Some (fun _ i -> if i.Insn.op = Op.CSRRS && i.Insn.csr = 0xC00 then incr reads);
  let stop = Rvsim.Machine.run_interp ~max_steps:1_000_000 m in
  {
    stop;
    machine = m;
    end_pc = Int64.add code_base (Int64.of_int (Bytes.length code - 4));
    code;
    m_syscalls = List.rev !syscalls;
    m_cycle_reads = !reads;
  }

(* --- printing -------------------------------------------------------------------- *)

let binop_name = function
  | S.Plus -> "+" | S.Minus -> "-" | S.Times -> "*" | S.Divide -> "/" | S.Mod -> "%"
  | S.BAnd -> "&" | S.BOr -> "|" | S.BXor -> "^" | S.Shl -> "<<" | S.Shr -> ">>"
  | S.Eq -> "==" | S.Ne -> "!=" | S.Lt -> "<" | S.Le -> "<=" | S.Gt -> ">" | S.Ge -> ">="

let rec expr_str = function
  | S.Const v -> Printf.sprintf "0x%Lx" v
  | S.Var v -> Printf.sprintf "%s@0x%Lx/%d" v.S.v_name v.S.v_addr v.S.v_size
  | S.Reg r -> Reg.name r
  | S.Param n -> Printf.sprintf "param%d" n
  | S.Load (w, a) -> Printf.sprintf "load%d[%s]" w (expr_str a)
  | S.Bin (op, a, b) -> Printf.sprintf "(%s %s %s)" (expr_str a) (binop_name op) (expr_str b)
  | S.Not a -> Printf.sprintf "!%s" (expr_str a)
  | S.Cycle -> "cycle"

let rec stmt_lines ind (s : S.stmt) =
  let pad = String.make (2 * ind) ' ' in
  let args l = String.concat ", " (List.map expr_str l) in
  let block l = List.concat_map (stmt_lines (ind + 1)) l in
  match s with
  | S.Nop -> [ pad ^ "nop" ]
  | S.Set (v, e) -> [ Printf.sprintf "%s%s := %s" pad (expr_str (S.Var v)) (expr_str e) ]
  | S.Store (w, a, v) -> [ Printf.sprintf "%sstore%d[%s] := %s" pad w (expr_str a) (expr_str v) ]
  | S.If (cnd, t, e) ->
      [ Printf.sprintf "%sif %s" pad (expr_str cnd) ]
      @ block t @ [ pad ^ "else" ] @ block e
  | S.While (cnd, b) -> (Printf.sprintf "%swhile %s" pad (expr_str cnd)) :: block b
  | S.Call (f, l) -> [ Printf.sprintf "%scall 0x%Lx(%s)" pad f (args l) ]
  | S.Scall (n, l) -> [ Printf.sprintf "%sscall 0x%x(%s)" pad n (args l) ]

let listing code =
  let rec go off acc =
    if off + 4 > Bytes.length code then List.rev acc
    else
      let w = Int32.to_int (Bytes.get_int32_le code off) land 0xFFFF_FFFF in
      let s =
        match Decode.decode_word w with Some i -> Insn.to_string i | None -> "?"
      in
      go (off + 4) (Printf.sprintf "  %4x: %s" off s :: acc)
  in
  go 0 []

(* --- one case --------------------------------------------------------------------- *)

let syscall_str (n, args) =
  Printf.sprintf "0x%x(%s)" n (String.concat ", " (List.map (Printf.sprintf "0x%Lx") args))

let diff_runs c st (r : run) =
  let ds = ref [] in
  let push fmt = Printf.ksprintf (fun s -> ds := s :: !ds) fmt in
  let m = r.machine in
  (match r.stop with
  | Rvsim.Machine.Ebreak pc when pc = r.end_pc -> ()
  | stop -> push "stop: codegen %s, AST ends at ebreak@0x%Lx" (Format.asprintf "%a" Rvsim.Machine.pp_stop stop) r.end_pc);
  for x = 1 to 31 do
    if (not (List.mem x c.scratch)) && m.Rvsim.Machine.regs.(x) <> c.regs.(x) then
      push "%s: codegen 0x%Lx, AST 0x%Lx" (Reg.name x) m.Rvsim.Machine.regs.(x) c.regs.(x)
  done;
  for f = 0 to 31 do
    if m.Rvsim.Machine.fregs.(f) <> c.fregs.(f) then
      push "f%d: codegen 0x%Lx, AST 0x%Lx" f m.Rvsim.Machine.fregs.(f) c.fregs.(f)
  done;
  let got = Rvsim.Mem.read_bytes m.Rvsim.Machine.mem c.data_base data_size in
  let n_diff = ref 0 and first = ref None in
  Bytes.iteri
    (fun i ch ->
      if ch <> Bytes.get st.mem i then begin
        incr n_diff;
        if !first = None then first := Some i
      end)
    got;
  Option.iter
    (fun i ->
      push "data[+0x%x]: codegen %02x, AST %02x (%d byte(s) differ)" i
        (Char.code (Bytes.get got i)) (Char.code (Bytes.get st.mem i)) !n_diff)
    !first;
  let want = List.rev st.syscalls in
  if r.m_syscalls <> want then
    push "syscalls: codegen [%s], AST [%s]"
      (String.concat "; " (List.map syscall_str r.m_syscalls))
      (String.concat "; " (List.map syscall_str want));
  if r.m_cycle_reads <> st.cycle_reads then
    push "cycle reads: codegen %d, AST %d" r.m_cycle_reads st.cycle_reads;
  List.rev !ds

let rec stmt_tags (s : S.stmt) =
  match s with
  | S.Nop -> [ "stmt=nop" ]
  | S.Set _ -> [ "stmt=set" ]
  | S.Store _ -> [ "stmt=store" ]
  | S.If (_, t, e) -> "stmt=if" :: List.concat_map stmt_tags (t @ e)
  | S.While (_, b) -> "stmt=while" :: List.concat_map stmt_tags b
  | S.Call _ -> [ "stmt=call" ]
  | S.Scall _ -> [ "stmt=scall" ]

let check ~verbose (c : case) : Diffkit.outcome =
  let st = { mem = Bytes.copy c.data; syscalls = []; cycle_reads = 0 } in
  let ref_result =
    match List.iter (exec c st) c.stmts with
    | () -> Ok ()
    | exception Outside a -> Error (Printf.sprintf "generator: access at 0x%Lx outside the data area" a)
  in
  let gen =
    match
      Codegen_api.Codegen.generate
        (Codegen_api.Codegen.create_ctx ~label_prefix:"sd" ~profile:Ext.rv64gc
           ~scratch:c.scratch ())
        c.stmts
    with
    | items -> Ok (run_machine c items)
    | exception Codegen_api.Codegen.Codegen_error msg -> Error ("codegen: " ^ msg)
  in
  let diffs, code =
    match (ref_result, gen) with
    | Error e, _ | _, Error e -> ([ e ], None)
    | Ok (), Ok r -> (diff_runs c st r, Some r.code)
  in
  let head =
    Printf.sprintf "%d statement(s), %d scratch (%s), data at 0x%Lx"
      (List.length c.stmts) (List.length c.scratch)
      (String.concat " " (List.map Reg.name c.scratch))
      c.data_base
  in
  let notes =
    if verbose || diffs <> [] then
      (head :: List.concat_map (stmt_lines 1) c.stmts)
      @ (match code with Some b when verbose -> "code:" :: listing b | _ -> [])
    else []
  in
  let tags = List.sort_uniq compare (List.concat_map stmt_tags c.stmts) in
  { Diffkit.diffs; notes; tags }

let cases ~seed ~count = List.init count (fun k -> Printf.sprintf "snippet:%Ld" (Int64.add seed (Int64.of_int k)))

let leg =
  {
    Diffkit.name = "snippet";
    run =
      (fun ~verbose -> function
        | [ seed ] -> check ~verbose (generate ~seed:(Diffkit.int64 seed))
        | _ -> raise Diffkit.Bad_case);
  }
