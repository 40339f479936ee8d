(* The content-addressed artifact cache behind rvserved ("parse once,
   serve many").

   Keys name derived artifacts, not files: [kind ^ ":" ^ sha256(elf
   bytes) ^ ":" ^ spec-key], so two tenants submitting the same binary
   under different paths share one parse, and touching a file's mtime
   without changing its bytes invalidates nothing.  Values are either a
   shared [Core.binary] (symtab + CFG, reused read-only by every action
   on that ELF) or a rendered-JSON payload string (the wire result of a
   lint/parse/rewrite/... job, cached byte-for-byte so warm responses
   are identical to cold ones).

   Memory layer: a hash table bounded by entry count and by an
   approximate byte budget, evicted least-recently-used (a logical tick
   is bumped on every touch).  Lookups that lose a race to a concurrent
   identical job block on a condition variable instead of recomputing
   (singleflight), which is what makes a batch of N identical requests
   cost one parse.

   Disk layer (optional): payload values persist under [disk_dir] named
   by a digest of the full key, so a restarted daemon serves warm
   results for binaries it has never parsed in this process.  Binary
   values are never written to disk (they are cheap to rebuild relative
   to their serialized size and hold interior mutable state).

   Invalidation: [flush] bumps a generation counter, empties the memory
   layer and unlinks persisted payloads.  Entries carry the generation
   they were computed under; a stale generation is treated as a miss,
   so results computed by jobs already in flight across a flush cannot
   re-enter the cache.  The on-disk store is versioned by
   [schema_version]: opening a directory written by a different schema
   wipes it rather than serving artifacts an older toolkit computed. *)

module Obs = Dyn_obs.Registry

(* The cache's counters: process-global registry rows (a daemon runs
   one cache; tests that build several share the totals), read by the
   metrics wire action. *)
let m_hits = Obs.counter "serve.cache.hits"
let m_misses = Obs.counter "serve.cache.misses"
let m_inserts = Obs.counter "serve.cache.inserts"
let m_evictions = Obs.counter "serve.cache.evictions"
let m_disk_hits = Obs.counter "serve.cache.disk_hits"
let m_waits = Obs.counter "serve.cache.singleflight_waits"
let m_flushes = Obs.counter "serve.cache.flushes"
let g_bytes = Obs.gauge "serve.cache.resident_bytes"
let g_entries = Obs.gauge "serve.cache.entries"

(* Bump whenever a toolkit change alters the bytes a job may produce
   for the same request: the rendered format of any action's payload,
   or its content (a rewrite's trampolines, a trace's or profile's
   numbers).  Version 2: CodeGenAPI emits different snippet code. *)
let schema_version = 2

type value = Bin of Core.binary | Payload of string

type entry = {
  e_val : value;
  e_size : int; (* approximate bytes, for the budget *)
  e_gen : int; (* generation at compute time *)
  mutable e_tick : int; (* last-touch tick (LRU) *)
}

type slot = Ready of entry | Pending

type t = {
  mu : Mutex.t;
  cv : Condition.t;
  tbl : (string, slot) Hashtbl.t;
  max_entries : int;
  max_bytes : int;
  disk_dir : string option;
  mutable gen : int;
  mutable tick : int;
  mutable bytes : int; (* sum of Ready entry sizes *)
}

(* Rough size of a value for the byte budget.  A Core.binary is
   dominated by section data plus CFG nodes; charge section bytes plus
   a flat per-block overhead so a 4 KiB mutatee does not look free. *)
let value_size = function
  | Payload s -> String.length s + 64
  | Bin b ->
      let section_bytes =
        List.fold_left
          (fun acc (s : Elfkit.Types.section) -> acc + Bytes.length s.s_data)
          0 b.Core.symtab.Symtab.image.Elfkit.Types.sections
      in
      let blocks =
        List.fold_left
          (fun acc (f : Parse_api.Cfg.func) ->
            acc + Parse_api.Cfg.I64Set.cardinal f.Parse_api.Cfg.f_blocks)
          0
          (Parse_api.Cfg.functions b.Core.cfg)
      in
      section_bytes + (blocks * 256) + 4096

let create ?disk_dir ?(max_entries = 256) ?(max_bytes = 64 * 1024 * 1024) () =
  let t =
    {
      mu = Mutex.create ();
      cv = Condition.create ();
      tbl = Hashtbl.create 64;
      max_entries;
      max_bytes;
      disk_dir;
      gen = 0;
      tick = 0;
      bytes = 0;
    }
  in
  (match disk_dir with
  | None -> ()
  | Some dir ->
      if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
      let marker = Filename.concat dir "SCHEMA" in
      let want = string_of_int schema_version in
      let have =
        try
          let ic = open_in marker in
          let l = try input_line ic with End_of_file -> "" in
          close_in ic;
          Some l
        with Sys_error _ -> None
      in
      if have <> Some want then begin
        Array.iter
          (fun f ->
            let p = Filename.concat dir f in
            if not (Sys.is_directory p) then Sys.remove p)
          (Sys.readdir dir);
        let oc = open_out marker in
        output_string oc want;
        close_out oc
      end);
  t

(* On-disk name for a payload key: digest the whole key so spec strings
   with shell-hostile characters cannot escape the directory. *)
let disk_path t key =
  match t.disk_dir with
  | None -> None
  | Some dir ->
      Some (Filename.concat dir (Dyn_util.Sha256.hex_of_string key ^ ".json"))

let disk_read t key =
  match disk_path t key with
  | None -> None
  | Some p -> (
      try
        let ic = open_in_bin p in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        Some s
      with Sys_error _ -> None)

let disk_write t key s =
  match disk_path t key with
  | None -> ()
  | Some p -> (
      try
        let tmp = p ^ ".tmp" in
        let oc = open_out_bin tmp in
        output_string oc s;
        close_out oc;
        Sys.rename tmp p
      with Sys_error _ -> ())

let disk_clear t =
  match t.disk_dir with
  | None -> ()
  | Some dir ->
      Array.iter
        (fun f ->
          if Filename.check_suffix f ".json" then
            try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir)

(* Evict LRU Ready entries until both budgets hold.  Pending slots are
   never evicted (a domain is computing behind them).  Caller holds
   [t.mu]. *)
let enforce_budget t =
  let ready_count () =
    Hashtbl.fold
      (fun _ s acc -> match s with Ready _ -> acc + 1 | Pending -> acc)
      t.tbl 0
  in
  let over () =
    (t.max_entries > 0 && ready_count () > t.max_entries)
    || (t.max_bytes > 0 && t.bytes > t.max_bytes)
  in
  while over () do
    let victim =
      Hashtbl.fold
        (fun k s acc ->
          match (s, acc) with
          | Pending, _ -> acc
          | Ready e, None -> Some (k, e)
          | Ready e, Some (_, best) ->
              if e.e_tick < best.e_tick then Some (k, e) else acc)
        t.tbl None
    in
    match victim with
    | None -> raise Exit (* only Pending slots left; budgets can't hold *)
    | Some (k, e) ->
        Hashtbl.remove t.tbl k;
        t.bytes <- t.bytes - e.e_size;
        Obs.incr m_evictions;
        Obs.add g_entries (-1);
        Obs.add g_bytes (-e.e_size)
  done

let enforce_budget t = try enforce_budget t with Exit -> ()

(* [get_or_compute t ~key f] returns [(value, cached)] where [cached]
   is true when the value came from the memory or disk layer.  At most
   one caller runs [f] per key at a time; racers block and then read
   the winner's entry.  If [f] raises, the exception propagates to the
   computing caller and one blocked racer (if any) retries the
   compute. *)
let rec get_or_compute t ~key (f : unit -> value) : value * bool =
  Mutex.lock t.mu;
  match Hashtbl.find_opt t.tbl key with
  | Some (Ready e) when e.e_gen = t.gen ->
      t.tick <- t.tick + 1;
      e.e_tick <- t.tick;
      Obs.incr m_hits;
      Mutex.unlock t.mu;
      (e.e_val, true)
  | Some (Ready e) ->
      (* stale generation: drop and recompute *)
      Hashtbl.remove t.tbl key;
      t.bytes <- t.bytes - e.e_size;
      Obs.add g_entries (-1);
      Obs.add g_bytes (-e.e_size);
      Mutex.unlock t.mu;
      get_or_compute t ~key f
  | Some Pending ->
      Obs.incr m_waits;
      Condition.wait t.cv t.mu;
      Mutex.unlock t.mu;
      get_or_compute t ~key f
  | None ->
      Obs.incr m_misses;
      let gen0 = t.gen in
      Hashtbl.replace t.tbl key Pending;
      Mutex.unlock t.mu;
      let outcome =
        try
          match disk_read t key with
          | Some s -> Ok (Payload s, true)
          | None ->
              let v = f () in
              (match v with Payload s -> disk_write t key s | Bin _ -> ());
              Ok (v, false)
        with e -> Error e
      in
      Mutex.lock t.mu;
      (match outcome with
      | Error e ->
          Hashtbl.remove t.tbl key;
          Condition.broadcast t.cv;
          Mutex.unlock t.mu;
          raise e
      | Ok (v, from_disk) ->
          if t.gen = gen0 then begin
            t.tick <- t.tick + 1;
            let entry =
              { e_val = v; e_size = value_size v; e_gen = t.gen; e_tick = t.tick }
            in
            Hashtbl.replace t.tbl key (Ready entry);
            t.bytes <- t.bytes + entry.e_size;
            Obs.incr m_inserts;
            Obs.add g_entries 1;
            Obs.add g_bytes entry.e_size;
            if from_disk then Obs.incr m_disk_hits;
            enforce_budget t
          end
          else
            (* flushed while computing: don't reinsert a pre-flush result *)
            Hashtbl.remove t.tbl key;
          Condition.broadcast t.cv;
          Mutex.unlock t.mu;
          (v, from_disk))

(* Invalidate everything: memory, disk, and any result still being
   computed (via the generation check above). *)
let flush t =
  Mutex.lock t.mu;
  t.gen <- t.gen + 1;
  Obs.incr m_flushes;
  (* keep Pending markers so in-flight singleflight waits still resolve *)
  let keep = Hashtbl.create 8 in
  Hashtbl.iter
    (fun k s -> match s with Pending -> Hashtbl.replace keep k Pending | Ready _ -> ())
    t.tbl;
  Hashtbl.reset t.tbl;
  Hashtbl.iter (fun k s -> Hashtbl.replace t.tbl k s) keep;
  t.bytes <- 0;
  Obs.set g_entries 0;
  Obs.set g_bytes 0;
  disk_clear t;
  Mutex.unlock t.mu

let generation t =
  Mutex.lock t.mu;
  let g = t.gen in
  Mutex.unlock t.mu;
  g

let mem_entries t =
  Mutex.lock t.mu;
  let n =
    Hashtbl.fold
      (fun _ s acc -> match s with Ready _ -> acc + 1 | Pending -> acc)
      t.tbl 0
  in
  Mutex.unlock t.mu;
  n

(* Ready keys, most recently used first (test/debug aid). *)
let mem_keys t =
  Mutex.lock t.mu;
  let ks =
    Hashtbl.fold
      (fun k s acc -> match s with Ready e -> (e.e_tick, k) :: acc | Pending -> acc)
      t.tbl []
  in
  Mutex.unlock t.mu;
  List.sort (fun (a, _) (b, _) -> compare b a) ks |> List.map snd
