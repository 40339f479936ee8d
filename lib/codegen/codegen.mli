(** CodeGenAPI (paper §2.2, §3.2.5): lower machine-independent snippet
    ASTs to RV64GC instruction sequences.

    Extension awareness (§3.1.1): the target profile — discovered by
    SymtabAPI from the mutatee — is consulted before emitting any
    instruction from an optional extension; a [Divide] snippet against a
    profile without M raises {!Codegen_error} instead of planting an
    illegal instruction.

    The code is what a compiler would emit: immediate forms, constant
    address parts folded into 12-bit access offsets, compare-and-branch
    conditions, and values (data pages, ring slot bases) kept in scratch
    registers for later statements to reuse.  It never needs more than
    {!Snippet.regs_needed} scratch registers. *)

exception Codegen_error of string

type ctx = {
  profile : Riscv.Ext.profile;
  scratch : Riscv.Reg.t list;
      (** integer registers the snippet may clobber — dead registers when
          liveness permits, else borrowed+spilled by PatchAPI *)
  mutable label_counter : int;
  label_prefix : string;
  sp_bias : int;
      (** bytes the code around the snippet moved sp down (PatchAPI's
          spill frame); a [Reg sp] read adds it back *)
}

(** @raise Codegen_error if a scratch register is not an allocatable
    integer register. *)
val create_ctx :
  ?label_prefix:string ->
  ?sp_bias:int ->
  profile:Riscv.Ext.profile ->
  scratch:Riscv.Reg.t list ->
  unit ->
  ctx

(** Generate assembler items for a snippet.
    @raise Codegen_error when the snippet needs an absent extension or
    more scratch registers than [ctx] provides. *)
val generate : ctx -> Snippet.stmt list -> Riscv.Asm.item list
