(** A small two-pass assembler over {!Insn.t} streams with labels, used to
    build mutatee code (the mini-C backend, tests) and instrumentation
    trampolines.

    Label-relative items relax iteratively, mirroring the compiler
    behaviour the paper describes (§3.2.3): conditional branches grow
    from a 4-byte branch to an inverted branch over a [jal] (8 bytes) and
    finally over an [auipc+jalr] pair (12 bytes, clobbering t1); jumps
    and calls grow from [jal] to [auipc+jalr]. *)

type item =
  | Insn of Insn.t  (** a fixed instruction (always emitted uncompressed) *)
  | Label of string
  | Br of Op.t * Reg.t * Reg.t * string  (** conditional branch to label *)
  | J of string  (** jal x0, label *)
  | Call_l of string  (** call: jal ra, relaxing to auipc+jalr *)
  | Tail_l of string  (** tail call: jal x0, relaxing to auipc+jalr *)
  | La of Reg.t * string  (** load address, pc-relative auipc+addi *)
  | Li of Reg.t * int64  (** load immediate via {!Build.li} expansion *)
  | Raw of string  (** literal bytes *)
  | D8 of int
  | D32 of int32
  | D64 of int64
  | Align of int

exception Undefined_label of string

(** Split a pc-relative offset into the (hi20, lo12) pair used by
    auipc/addi and auipc/jalr sequences. *)
val pcrel_hi_lo : int64 -> int * int

type result = {
  code : Bytes.t;
  labels : (string, int64) Hashtbl.t;  (** label -> absolute address *)
}

(** Assemble [items] for load address [base].  [symbols] resolves labels
    defined elsewhere (data objects, absolute "@hex" trampoline targets).
    @raise Undefined_label when neither local labels nor [symbols] know a
    name. *)
val assemble :
  ?base:int64 -> ?symbols:(string -> int64 option) -> item list -> result

(** Address of a label in an assembly result.
    @raise Undefined_label if absent. *)
val label_addr : result -> string -> int64
