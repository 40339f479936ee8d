(* Per-instruction cycle-cost model.

   The paper's RISC-V numbers come from a SiFive P550 (an in-order-ish
   3-wide core at 1.4 GHz).  We model a simple in-order scalar pipeline:
   most integer ops are 1 cycle, loads have a 3-cycle use latency folded
   into the instruction, multiplies 3, divides ~20, FP adds/muls 4-5,
   FP divide ~25, taken branches pay a 2-cycle redirect penalty.  The
   absolute numbers are synthetic.  Both the uninstrumented and the
   instrumented run use the same model, so an overhead ratio is
   reproducible and the paper's orderings can be checked, but its
   magnitude depends on the model: a scalar cost sum flatters the
   added instructions against a wide out-of-order core (see DESIGN.md,
   substitutions). *)

type model = {
  freq_hz : int64; (* simulated core frequency *)
  cost : Riscv.Op.t -> int;
  taken_branch_penalty : int;
}

let default_cost (op : Riscv.Op.t) =
  let open Riscv.Op in
  match op with
  | LB | LH | LW | LD | LBU | LHU | LWU | FLW | FLD -> 2
  | SB | SH | SW | SD | FSW | FSD -> 1
  | MUL | MULH | MULHSU | MULHU | MULW -> 3
  | DIV | DIVU | REM | REMU | DIVW | DIVUW | REMW | REMUW -> 20
  | FADD_S | FSUB_S | FADD_D | FSUB_D -> 4
  | FMUL_S | FMUL_D -> 5
  | FMADD_S | FMSUB_S | FNMSUB_S | FNMADD_S
  | FMADD_D | FMSUB_D | FNMSUB_D | FNMADD_D -> 6
  | FDIV_S | FSQRT_S -> 20
  | FDIV_D | FSQRT_D -> 27
  | FCVT_W_S | FCVT_WU_S | FCVT_L_S | FCVT_LU_S | FCVT_S_W | FCVT_S_WU
  | FCVT_S_L | FCVT_S_LU | FCVT_W_D | FCVT_WU_D | FCVT_L_D | FCVT_LU_D
  | FCVT_D_W | FCVT_D_WU | FCVT_D_L | FCVT_D_LU | FCVT_S_D | FCVT_D_S -> 4
  | FMV_X_W | FMV_W_X | FMV_X_D | FMV_D_X -> 2
  | LR_W | LR_D | SC_W | SC_D -> 5
  | op when is_amo op -> 8
  | FENCE | FENCE_I -> 10
  | ECALL | EBREAK -> 30
  | CSRRW | CSRRS | CSRRC | CSRRWI | CSRRSI | CSRRCI -> 5
  | _ -> 1

(* 1.4 GHz, matching the paper's SiFive P550.  Taken-branch penalty 0:
   the P550 predicts the steady-state loop branches and the unconditional
   springboard/trampoline jumps essentially perfectly, so the model folds
   redirects into throughput.  (Set it >0 to model a predictor-less
   core; the instrumentation overhead rises accordingly.) *)
let p550 = { freq_hz = 1_400_000_000L; cost = default_cost; taken_branch_penalty = 0 }

let cycles_to_ns m cycles =
  (* ns = cycles * 1e9 / freq *)
  Int64.div (Int64.mul cycles 1_000_000_000L) m.freq_hz

(* --- hardware performance-monitoring events ------------------------------ *)

(* What a programmable mhpmcounter can be told to count (the P550
   exposes a similar menu through its mhpmevent selectors).  [Ev_off]
   is selector 0: the counter holds its value. *)
type event =
  | Ev_off
  | Ev_branch (* conditional branches retired *)
  | Ev_taken_branch (* conditional branches retired and taken *)
  | Ev_load (* loads retired (integer and FP) *)
  | Ev_store (* stores retired (integer and FP) *)
  | Ev_compressed (* 16-bit (RVC) instructions retired *)
  | Ev_flush (* fetch/icache flushes (FENCE.I and patching) *)

let all_events =
  [ Ev_branch; Ev_taken_branch; Ev_load; Ev_store; Ev_compressed; Ev_flush ]

let selector_of_event = function
  | Ev_off -> 0
  | Ev_branch -> 1
  | Ev_taken_branch -> 2
  | Ev_load -> 3
  | Ev_store -> 4
  | Ev_compressed -> 5
  | Ev_flush -> 6

let event_of_selector = function
  | 0 -> Some Ev_off
  | 1 -> Some Ev_branch
  | 2 -> Some Ev_taken_branch
  | 3 -> Some Ev_load
  | 4 -> Some Ev_store
  | 5 -> Some Ev_compressed
  | 6 -> Some Ev_flush
  | _ -> None

let event_name = function
  | Ev_off -> "off"
  | Ev_branch -> "branch"
  | Ev_taken_branch -> "taken-branch"
  | Ev_load -> "load"
  | Ev_store -> "store"
  | Ev_compressed -> "compressed"
  | Ev_flush -> "flush"

let event_of_name = function
  | "off" -> Some Ev_off
  | "branch" -> Some Ev_branch
  | "taken-branch" | "taken" -> Some Ev_taken_branch
  | "load" -> Some Ev_load
  | "store" -> Some Ev_store
  | "compressed" | "rvc" -> Some Ev_compressed
  | "flush" -> Some Ev_flush
  | _ -> None

(* Does the retirement of [insn] (with branch outcome [taken]) count
   toward [ev]?  [Ev_flush] is counted at flush time, not here. *)
let counts_event (ev : event) (insn : Riscv.Insn.t) ~(taken : bool) : bool =
  let open Riscv in
  match ev with
  | Ev_off | Ev_flush -> false
  | Ev_branch -> Op.is_cond_branch insn.Insn.op
  | Ev_taken_branch -> Op.is_cond_branch insn.Insn.op && taken
  | Ev_load -> Op.is_load insn.Insn.op
  | Ev_store -> Op.is_store insn.Insn.op
  | Ev_compressed -> insn.Insn.len = 2
