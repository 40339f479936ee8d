(** Hierarchical span tracing on a monotonic clock, plus a leveled
    structured event log, both held in one bounded in-memory ring.
    Off by default (one branch when off); exportable as Chrome
    trace-event JSON (Perfetto-loadable) or NDJSON.  Spans record
    begin+duration on the recording domain's track and carry their
    lexical parent (per-domain stack — systhreads sharing a domain may
    misattribute parents; worker domains nest exactly). *)

(** Monotonic nanoseconds: wall clock clamped through an atomic
    high-water mark, so it never goes backwards. *)
val now_ns : unit -> int

type level = Debug | Info | Warn | Error

type event = {
  ev_name : string;
  ev_tid : int;
  ev_ts_ns : int;
  ev_dur_ns : int;
  ev_parent : string;  (** [""] = root *)
  ev_level : string;  (** ["span"] for spans, else the log level *)
  ev_args : (string * string) list;
}

val set_enabled : bool -> unit
val is_enabled : unit -> bool

(** Ring bound (default 65536 events); oldest events drop beyond it. *)
val set_capacity : int -> unit

val dropped : unit -> int
val clear : unit -> unit

(** Oldest first. *)
val events : unit -> event list

(** Record a finished span explicitly.  [parent] defaults to the
    calling domain's current span, [tid] to the domain id. *)
val complete :
  ?args:(string * string) list ->
  ?parent:string ->
  ?tid:int ->
  t0_ns:int ->
  t1_ns:int ->
  string ->
  unit

(** Time [f] as a span named [name], nested under the current span;
    exception-transparent; just runs [f] when tracing is off. *)
val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Leveled instant event ([Info] by default). *)
val log : ?level:level -> ?fields:(string * string) list -> string -> unit

(** Per span name, total ms and call count folded from {!events}
    (with the dropped count when nonzero), then the nonzero
    {!Registry} rows: what the CLIs' [--stats] prints. *)
val pp_stats : Format.formatter -> unit -> unit

val chrome_json : unit -> string
val ndjson : unit -> string

(** Write [chrome_json] — or [ndjson] if [path] ends in [.ndjson]. *)
val write_out : string -> unit
