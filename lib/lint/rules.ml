(* The rule catalog: every diagnostic the linter or the rewrite
   verifier (structural rules and symbolic tier) can emit, with its
   default severity and a one-line description.  `rvlint rules` prints
   this table; DESIGN.md documents the rationale per rule. *)

type scope = Lint | Verify

type rule = {
  r_id : string;
  r_severity : Diag.severity;
  r_scope : scope;
  r_doc : string;
}

let scope_name = function Lint -> "lint" | Verify -> "verify"

let all : rule list =
  [
    (* --- binary linter ---------------------------------------------------- *)
    {
      r_id = "overlap";
      r_severity = Diag.Error;
      r_scope = Lint;
      r_doc = "two basic blocks overlap in the address space";
    };
    {
      r_id = "misaligned-insn";
      r_severity = Diag.Error;
      r_scope = Lint;
      r_doc =
        "instruction at an odd address, or 4-byte-misaligned without the C \
         extension";
    };
    {
      r_id = "undecodable-fall";
      r_severity = Diag.Error;
      r_scope = Lint;
      r_doc = "control falls off a block into undecodable bytes";
    };
    {
      r_id = "dangling-edge";
      r_severity = Diag.Error;
      r_scope = Lint;
      r_doc = "intraprocedural edge to an address with no parsed block";
    };
    {
      r_id = "abi-clobber";
      r_severity = Diag.Error;
      r_scope = Lint;
      r_doc =
        "callee-saved register written without a stack save anywhere in the \
         function";
    };
    {
      r_id = "unresolved-indirect";
      r_severity = Diag.Warning;
      r_scope = Lint;
      r_doc =
        "indirect jump the parser could not resolve (springboards over its \
         targets are unsafe)";
    };
    {
      r_id = "jump-table-clamped";
      r_severity = Diag.Warning;
      r_scope = Lint;
      r_doc =
        "jump table recovered without a bound check; the entry scan hit the \
         cap";
    };
    {
      r_id = "unreachable-block";
      r_severity = Diag.Warning;
      r_scope = Lint;
      r_doc = "block not reachable from its function's entry";
    };
    {
      r_id = "nonstandard-prologue";
      r_severity = Diag.Warning;
      r_scope = Lint;
      r_doc =
        "returning non-leaf function never saves ra to the stack — breaks \
         the Stackwalker analysis stepper";
    };
    {
      r_id = "stack-height-unknown";
      r_severity = Diag.Warning;
      r_scope = Lint;
      r_doc =
        "stack height unknowable somewhere in the function — fast_walk \
         falls back to the frame-pointer chain";
    };
    {
      r_id = "indirect-coverage";
      r_severity = Diag.Info;
      r_scope = Lint;
      r_doc = "per-function indirect-jump resolution summary";
    };
    (* --- patch verifier --------------------------------------------------- *)
    {
      r_id = "manifest-mismatch";
      r_severity = Diag.Error;
      r_scope = Verify;
      r_doc =
        "rewritten image disagrees with the manifest (missing section, \
         unknown block, size mismatch)";
    };
    {
      r_id = "springboard-target";
      r_severity = Diag.Error;
      r_scope = Verify;
      r_doc =
        "springboard does not land on its trampoline's instruction boundary";
    };
    {
      r_id = "springboard-scratch";
      r_severity = Diag.Error;
      r_scope = Verify;
      r_doc = "auipc+jalr springboard consumes a register that is live";
    };
    {
      r_id = "trap-unmapped";
      r_severity = Diag.Error;
      r_scope = Verify;
      r_doc = "trap springboard with no entry in the trap map";
    };
    {
      r_id = "clobber-live";
      r_severity = Diag.Error;
      r_scope = Verify;
      r_doc =
        "snippet clobbers a register that is live at the patch point (§4.3 \
         violation)";
    };
    {
      r_id = "dangling-jump-table";
      r_severity = Diag.Error;
      r_scope = Verify;
      r_doc =
        "jump-table entry in the rewritten image points inside a patched \
         block or at a non-instruction address";
    };
    {
      r_id = "block-residue";
      r_severity = Diag.Warning;
      r_scope = Verify;
      r_doc =
        "non-zero bytes left in a patched block after its springboard";
    };
    (* --- symbolic tier (Verify_api.Check.verify_rewrite) ------------------ *)
    {
      r_id = "symbolic-inequivalence";
      r_severity = Diag.Error;
      r_scope = Verify;
      r_doc =
        "relocated block provably differs from the original (exit, \
         registers incl. sp, CSRs, memory) beyond the declared snippet \
         effects";
    };
    {
      r_id = "symbolic-timeout";
      r_severity = Diag.Warning;
      r_scope = Verify;
      r_doc =
        "symbolic equivalence of a patch site inconclusive within the \
         step/path budget";
    };
  ]

let find id = List.find_opt (fun r -> r.r_id = id) all

let pp_catalog fmt () =
  List.iter
    (fun r ->
      Format.fprintf fmt "%-22s %-7s %-7s %s@\n" r.r_id
        (Diag.severity_name r.r_severity)
        (scope_name r.r_scope) r.r_doc)
    all
