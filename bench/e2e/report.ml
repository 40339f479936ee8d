(* Metric records, the result line, BENCHMARK.json, and --compare. *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

(* Full precision, as measured. *)
let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let quote s = Printf.sprintf "%S" s

(* The result object the benchmark prints as its last line. *)
let result_json ?(extra = []) ~correct ~attempted ~failed metrics =
  let ms =
    List.map
      (fun m ->
        Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (quote m.name) (num m.value)
          (quote m.unit_))
      metrics
  in
  Printf.sprintf "{%s\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    (String.concat "" (List.map (fun (k, v) -> Printf.sprintf "%s: %s, " (quote k) v) extra))
    correct attempted failed (String.concat ", " ms)

let print_metrics metrics =
  print_endline "metrics:";
  List.iter (fun m -> Printf.printf "  %-34s %18s %s\n" m.name (num m.value) m.unit_) metrics

(* ------------------------------------------------------------------ *)
(* BENCHMARK.json                                                      *)
(* ------------------------------------------------------------------ *)

type spec = {
  s_name : string;
  s_unit : string;
  s_higher : bool;  (** higher is better *)
  s_bound : float option;  (** end-to-end metrics only *)
}

let load_spec root =
  let j = Json.of_file (Filename.concat root "BENCHMARK.json") in
  let metrics key =
    List.map
      (fun m ->
        {
          s_name = Json.to_str (Json.member "name" m);
          s_unit = Json.to_str (Json.member "unit" m);
          s_higher = Json.to_str (Json.member "better" m) = "higher";
          s_bound =
            (match Json.member "bound" m with Json.Num b -> Some b | _ -> None);
        })
      (Json.to_list (Json.member key j))
  in
  (metrics "end_to_end", metrics "per_layer")

(* Differences between what a run produced and what BENCHMARK.json
   declares for it, as messages. *)
let conformance (declared : spec list) (got : metric list) : string list =
  let missing =
    List.filter_map
      (fun s ->
        match List.find_opt (fun m -> m.name = s.s_name) got with
        | None -> Some (Printf.sprintf "metric %s declared but not produced" s.s_name)
        | Some m when m.unit_ <> s.s_unit ->
            Some (Printf.sprintf "metric %s in %s, declared %s" s.s_name m.unit_ s.s_unit)
        | Some m when not (Float.is_finite m.value) ->
            Some (Printf.sprintf "metric %s is not finite" s.s_name)
        | Some _ -> None)
      declared
  in
  let extra =
    List.filter_map
      (fun m ->
        if List.exists (fun s -> s.s_name = m.name) declared then None
        else Some (Printf.sprintf "metric %s produced but not declared" m.name))
      got
  in
  missing @ extra

(* ------------------------------------------------------------------ *)
(* --compare                                                           *)
(* ------------------------------------------------------------------ *)

(* (workload, metric) -> values, from the NDJSON run records --json
   appends. *)
let load_runs path =
  let tbl = Hashtbl.create 64 in
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")
  |> List.iter (fun line ->
         let j = Json.of_string line in
         let w = Json.to_str (Json.member "workload" j) in
         match Json.member "metrics" j with
         | Json.Obj ms ->
             List.iter
               (fun (name, v) ->
                 let key = (w, name) in
                 let seen = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
                 Hashtbl.replace tbl key (Json.to_num (Json.member "value" v) :: seen))
               ms
         | _ -> ());
  tbl

(* Print every (metric, workload) pair both files hold, with both
   medians, spreads and the bound; returns whether any regressed. *)
let compare_runs ~root old_path new_path =
  let e2e, layer = load_spec root in
  let old_runs = load_runs old_path and new_runs = load_runs new_path in
  let keys =
    Hashtbl.fold (fun k _ acc -> if Hashtbl.mem new_runs k then k :: acc else acc) old_runs []
    |> List.sort compare
  in
  let regressed = ref false in
  Printf.printf "%-18s %-30s %14s %14s %8s %8s %7s  %s\n" "workload" "metric" "old median"
    "new median" "change" "spread" "bound" "verdict";
  List.iter
    (fun ((w, name) as key) ->
      let vals t = Array.of_list (Hashtbl.find t key) in
      let o = vals old_runs and n = vals new_runs in
      let mo = Measure.median o and mn = Measure.median n in
      let spread = Float.max (Measure.spread o) (Measure.spread n) in
      let change =
        if mo = 0.0 then if mn = 0.0 then 0.0 else infinity
        else (mn -. mo) /. Float.abs mo
      in
      let spec = List.find_opt (fun s -> s.s_name = name) (e2e @ layer) in
      let verdict, bound =
        match spec with
        | Some { s_bound = Some b; s_higher; _ } ->
            let worse = if s_higher then -.change else change in
            ( (if spread > b then "unresolved"
               else if worse > b then (
                 regressed := true;
                 "regressed")
               else if worse < -.b then "improved"
               else "unchanged"),
              Printf.sprintf "%.0f%%" (100.0 *. b) )
        | Some _ -> ("per-layer", "-")
        | None -> ("undeclared", "-")
      in
      Printf.printf "%-18s %-30s %14.6g %14.6g %+7.1f%% %7.1f%% %7s  %s\n" w name mo mn
        (100.0 *. change) (100.0 *. spread) bound verdict)
    keys;
  !regressed
