(* A small JSON reader with floats.  Dyn_util.Jsonw is integer-only by
   design (nothing on the toolkit's wire carries floats), but the
   benchmark reads its own metric records, BENCHMARK.json's bounds and
   the committed BENCH_*.json values, all of which hold decimals. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let of_string (s : string) : t =
  let pos = ref 0 in
  let n = String.length s in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then (
      incr pos;
      ws ())
  in
  let expect c =
    ws ();
    if peek () <> c then fail (Printf.sprintf "expected '%c'" c);
    incr pos
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then (
      pos := !pos + String.length word;
      v)
    else fail "bad literal"
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> ()
      | '\\' ->
          if !pos >= n then fail "bad escape";
          let e = s.[!pos] in
          incr pos;
          (match e with
          | 'n' -> Buffer.add_char b '\n'
          | 't' -> Buffer.add_char b '\t'
          | 'r' -> Buffer.add_char b '\r'
          | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s !pos 4) in
              pos := !pos + 4;
              Buffer.add_char b (Char.chr (code land 0xFF))
          | c -> Buffer.add_char b c);
          go ()
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
        incr pos;
        ws ();
        if peek () = '}' then (
          incr pos;
          Obj [])
        else
          let rec members acc =
            ws ();
            let k = string_lit () in
            expect ':';
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
                incr pos;
                members ((k, v) :: acc)
            | '}' ->
                incr pos;
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | '[' ->
        incr pos;
        ws ();
        if peek () = ']' then (
          incr pos;
          Arr [])
        else
          let rec elements acc =
            let v = value () in
            ws ();
            match peek () with
            | ',' ->
                incr pos;
                elements (v :: acc)
            | ']' ->
                incr pos;
                Arr (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | '"' -> Str (string_lit ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> (
        let start = !pos in
        while !pos < n && String.contains "+-.eE0123456789" s.[!pos] do
          incr pos
        done;
        match float_of_string_opt (String.sub s start (!pos - start)) with
        | Some f -> Num f
        | None -> fail "bad number")
    | _ -> fail "unexpected character"
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing characters";
  v

let of_file path = of_string (In_channel.with_open_bin path In_channel.input_all)

let member k = function
  | Obj kvs -> ( match List.assoc_opt k kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_num = function Num f -> f | _ -> raise (Error "expected a number")
let to_str = function Str s -> s | _ -> raise (Error "expected a string")
let to_list = function Arr l -> l | _ -> raise (Error "expected an array")
