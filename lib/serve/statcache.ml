(* Path -> content-hash memoization keyed by stat(2) fingerprint, the
   front door of the artifact cache.

   The cache proper is content-addressed; this layer exists so a warm
   hit does not pay read(2) + SHA-256 of the whole mutatee just to
   learn a hash the daemon already computed.  A path's hash is reused
   while its (device, inode, size, mtime, ctime) fingerprint is
   unchanged — the same trust git's index places in stat data.  Any
   touch, rewrite or rename-over changes the fingerprint and forces a
   rehash; the pathological case (same-size in-place write within mtime
   granularity) is the known, accepted limit of stat caching.

   Shared across domains under one mutex: lookups are two hashtable
   probes, never I/O.  Hits and misses count into process-global
   registry rows. *)

module Obs = Dyn_obs.Registry

let m_hits = Obs.counter "serve.stat.hits"
let m_misses = Obs.counter "serve.stat.misses"

type fingerprint = {
  fp_dev : int;
  fp_ino : int;
  fp_size : int;
  fp_mtime : float;
  fp_ctime : float;
}

type t = {
  mu : Mutex.t;
  tbl : (string, fingerprint * string) Hashtbl.t; (* path -> (fp, hex hash) *)
}

let create () = { mu = Mutex.create (); tbl = Hashtbl.create 64 }

let fingerprint_of (st : Unix.stats) : fingerprint =
  {
    fp_dev = st.Unix.st_dev;
    fp_ino = st.Unix.st_ino;
    fp_size = st.Unix.st_size;
    fp_mtime = st.Unix.st_mtime;
    fp_ctime = st.Unix.st_ctime;
  }

(* [hash t path] — the SHA-256 hex of [path]'s bytes, from the memo
   when the fingerprint still matches.  Raises [Unix.Unix_error] on a
   vanished path. *)
let hash (t : t) (path : string) : string =
  let fp = fingerprint_of (Unix.stat path) in
  Mutex.lock t.mu;
  let known =
    match Hashtbl.find_opt t.tbl path with
    | Some (fp', h) when fp' = fp -> Some h
    | _ -> None
  in
  Mutex.unlock t.mu;
  match known with
  | Some h ->
      Obs.incr m_hits;
      h
  | None ->
      Obs.incr m_misses;
      let h = Dyn_util.Sha256.hex_of_file path in
      Mutex.lock t.mu;
      Hashtbl.replace t.tbl path (fp, h);
      Mutex.unlock t.mu;
      h

let clear t =
  Mutex.lock t.mu;
  Hashtbl.reset t.tbl;
  Mutex.unlock t.mu
