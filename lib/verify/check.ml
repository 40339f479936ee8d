(* The manifest driver: symbolically verify every patch site of a
   rewrite, surface the results as lint diagnostics and a JSON payload
   for the artifact cache, and — via {!verify_rewrite} — the single
   rewrite-verification entry point: the structural rules, then the
   symbolic proof of every relocated block. *)

module Obs = Dyn_obs.Registry
module Trace = Dyn_obs.Trace
module J = Dyn_util.Jsonw

type report = {
  r_sites : Equiv.site list;
  r_ok : int;
  r_failed : int;
  r_unknown : int;
}

let c_ok = Obs.counter "verify.sites_ok"
let c_failed = Obs.counter "verify.sites_failed"
let c_timeout = Obs.counter "verify.sites_timeout"

(* Instruction fetch over the rewritten image: region lookup + decode,
   memoized (trampoline continuations re-walk the same span). *)
let fetcher (rw : Symtab.t) : int64 -> Instruction.t option =
  let memo = Hashtbl.create 64 in
  fun pc ->
    match Hashtbl.find_opt memo pc with
    | Some r -> r
    | None ->
        let r =
          match Symtab.region_at rw pc with
          | None -> None
          | Some rg ->
              Instruction.decode ~base:rg.Symtab.rg_addr rg.Symtab.rg_data
                ~pos:(Int64.to_int (Int64.sub pc rg.Symtab.rg_addr))
        in
        Hashtbl.replace memo pc r;
        r

let check_manifest ?config ~orig:(_ : Symtab.t) (cfg : Parse_api.Cfg.t)
    ~(manifest : Patch_api.Manifest.t) ~(rewritten : Elfkit.Types.image) :
    report =
  let rw_code = fetcher (Symtab.of_image rewritten) in
  let span_end = Equiv.span_end manifest in
  let sites =
    List.map
      (fun e ->
        let site =
          Trace.with_span "verify.site" (fun () ->
              Equiv.check_site ?config ~cfg ~manifest ~rw_code
                ~tramp_hi:(span_end e) e)
        in
        (match site.Equiv.s_verdict with
        | Equiv.Proved -> Obs.incr c_ok
        | Equiv.Failed _ -> Obs.incr c_failed
        | Equiv.Unknown _ -> Obs.incr c_timeout);
        site)
      manifest.Patch_api.Manifest.m_entries
  in
  let count p = List.length (List.filter p sites) in
  {
    r_sites = sites;
    r_ok = count (fun s -> s.Equiv.s_verdict = Equiv.Proved);
    r_failed =
      count (fun s ->
          match s.Equiv.s_verdict with Equiv.Failed _ -> true | _ -> false);
    r_unknown =
      count (fun s ->
          match s.Equiv.s_verdict with Equiv.Unknown _ -> true | _ -> false);
  }

(* --- diagnostics ---------------------------------------------------------- *)

let to_diags (r : report) : Lint_api.Diag.t list =
  List.concat_map
    (fun (s : Equiv.site) ->
      match s.Equiv.s_verdict with
      | Equiv.Proved -> []
      | Equiv.Failed issues ->
          List.map
            (fun msg ->
              Lint_api.Diag.make ~rule:"symbolic-inequivalence"
                ~severity:Lint_api.Diag.Error ~addr:s.Equiv.s_block
                "block 0x%Lx (%s springboard): %s" s.Equiv.s_block
                s.Equiv.s_strategy msg)
            issues
      | Equiv.Unknown msg ->
          [
            Lint_api.Diag.make ~rule:"symbolic-timeout"
              ~severity:Lint_api.Diag.Warning ~addr:s.Equiv.s_block
              "block 0x%Lx: symbolic verification inconclusive: %s"
              s.Equiv.s_block msg;
          ])
    r.r_sites

(* --- JSON payload (rvserved verify jobs) ---------------------------------- *)

let verdict_json (s : Equiv.site) =
  let v, detail =
    match s.Equiv.s_verdict with
    | Equiv.Proved -> ("proved", [])
    | Equiv.Failed issues ->
        ("failed", [ ("issues", J.List (List.map (fun m -> J.String m) issues)) ])
    | Equiv.Unknown msg -> ("unknown", [ ("reason", J.String msg) ])
  in
  J.Obj
    ([
       ("block", J.String (Printf.sprintf "0x%Lx" s.Equiv.s_block));
       ("strategy", J.String s.Equiv.s_strategy);
       ("verdict", J.String v);
       ("paths_orig", J.Int (Int64.of_int s.Equiv.s_paths_orig));
       ("paths_rewritten", J.Int (Int64.of_int s.Equiv.s_paths_tramp));
       ("steps", J.Int (Int64.of_int s.Equiv.s_steps));
     ]
    @ detail)

let to_json (r : report) : J.t =
  J.Obj
    [
      ("sites", J.Int (Int64.of_int (List.length r.r_sites)));
      ("proved", J.Int (Int64.of_int r.r_ok));
      ("failed", J.Int (Int64.of_int r.r_failed));
      ("unknown", J.Int (Int64.of_int r.r_unknown));
      ("verdicts", J.List (List.map verdict_json r.r_sites));
    ]

(* --- the one rewrite verifier ----------------------------------------------- *)

(* The structural rules own what has no semantic analogue (springboard
   encodings, trap map, jump tables, declared clobbers); the symbolic
   tier owns relocation and stack motion.  Returns the sorted
   diagnostics of both tiers and the symbolic tier's per-site report. *)
let verify_rewrite ~orig cfg ~manifest ~rewritten :
    Lint_api.Diag.t list * report =
  let structural = Lint_api.Verifier.verify ~orig cfg ~manifest ~rewritten in
  let r = check_manifest ~orig cfg ~manifest ~rewritten in
  (Lint_api.Diag.sort (structural @ to_diags r), r)
