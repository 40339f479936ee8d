(** Executes one wire job (parse/lint/rewrite/profile/trace) against
    the artifact cache: hash the mutatee's bytes, reuse or build the
    shared parsed binary ([bin:<hash>]), reuse or render the job
    payload ([<action>:<hash>:<spec>]).  Payloads are deterministic, so
    warm results are byte-identical to cold ones.  Never raises —
    failures become error responses. *)

(** Render the payload for a job action on an already-parsed binary
    (no caching; the deterministic core of {!exec}).
    @raise Invalid_argument on control actions. *)
val payload_for : Core.binary -> Wire.action -> string

(** Execute a job request end to end; control actions yield an error
    response (they belong to the server).  With [stat], unchanged
    mutatees skip the read+hash via the {!Statcache} memo.  A cold
    parse runs on the calling domain alone. *)
val exec : ?stat:Statcache.t -> Cache.t -> Wire.request -> Wire.response
