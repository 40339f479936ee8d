(** The patch verifier: check a rewritten image against the manifest its
    rewrite emitted — springboard encodings and boundary targets, §4.3
    dead-register claims and jump-table integrity.  Purely static; the
    cheap complement to the dynamic rvcheck round trip.  Whether the
    relocated code computes what the original did is proved by the
    symbolic tier; [Verify_api.Check.verify_rewrite] runs both. *)

(** [verify ~orig cfg ~manifest ~rewritten] — [orig]/[cfg] are the
    original binary's symtab and parse; [rewritten] the rewritten
    image. *)
val verify :
  orig:Symtab.t ->
  Parse_api.Cfg.t ->
  manifest:Patch_api.Manifest.t ->
  rewritten:Elfkit.Types.image ->
  Diag.t list
