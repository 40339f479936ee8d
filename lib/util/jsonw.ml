(* Shared JSON representation: one value type, one writer, one parser,
   used by every layer that speaks JSON — lint diagnostics, patch
   manifests, the sail pipeline IR and the rvserved wire protocol.
   Previously the sail pipeline, Diag and Manifest each carried their own
   rendering; this module is the extraction.

   Two writers: [to_string] is a compact Buffer-based encoder (no
   whitespace) for wire traffic and cache payloads, where byte-stable
   output matters — the artifact cache's warm/cold differential compares
   rendered payloads byte for byte.  [pp] is the human-facing
   Format-based pretty printer.  The parser is a recursive-descent reader
   for the JSON grammar; on any malformed input it raises [Parse_error]
   and nothing else, so one bad request line cannot kill its reader.

   An integer lexeme is [Int]; one with a fraction or an exponent is
   [Num], its lexeme kept as is, so [fixed ~digits:2 1.5] writes and
   reads back [1.50].  Only the BENCH files hold decimals; wire traffic
   and cache payloads stay integers. *)

type t =
  | Null
  | Bool of bool
  | Int of int64
  | Num of string
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string

(* [x] with [digits] digits after the decimal point *)
let fixed ~digits x = Num (Printf.sprintf "%.*f" digits x)

(* --- compact writer ------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec write_to buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (Int64.to_string i)
  | Num s -> Buffer.add_string buf s
  | String s -> escape_to buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun k x ->
          if k > 0 then Buffer.add_char buf ',';
          write_to buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun k (key, v) ->
          if k > 0 then Buffer.add_char buf ',';
          escape_to buf key;
          Buffer.add_char buf ':';
          write_to buf v)
        kvs;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  write_to buf t;
  Buffer.contents buf

(* --- pretty printer -------------------------------------------------------- *)

let rec pp fmt = function
  | Null -> Format.pp_print_string fmt "null"
  | Bool b -> Format.pp_print_bool fmt b
  | Int i -> Format.fprintf fmt "%Ld" i
  | Num s -> Format.pp_print_string fmt s
  | String s -> pp_string fmt s
  | List xs ->
      Format.fprintf fmt "[@[<hv>%a@]]"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",@ ") pp)
        xs
  | Obj kvs ->
      let pp_kv fmt (k, v) = Format.fprintf fmt "%a:@ %a" pp_string k pp v in
      Format.fprintf fmt "{@[<hv>%a@]}"
        (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f ",@ ") pp_kv)
        kvs

and pp_string fmt s =
  let buf = Buffer.create (String.length s + 2) in
  escape_to buf s;
  Format.pp_print_string fmt (Buffer.contents buf)

let to_string_pretty t = Format.asprintf "%a" pp t

(* --- parser -------------------------------------------------------------- *)

type state = { src : string; mutable pos : int }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None
let advance st = st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\n' | '\r') ->
      advance st;
      skip_ws st
  | _ -> ()

let fail_at st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let expect st c =
  skip_ws st;
  match peek st with
  | Some c' when c' = c -> advance st
  | _ -> fail_at st (Printf.sprintf "expected %c" c)

let parse_string_lit st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail_at st "unterminated string"
    | Some '"' -> advance st
    | Some '\\' -> (
        advance st;
        match peek st with
        | Some 'n' -> advance st; Buffer.add_char buf '\n'; go ()
        | Some 't' -> advance st; Buffer.add_char buf '\t'; go ()
        | Some 'r' -> advance st; Buffer.add_char buf '\r'; go ()
        | Some 'u' ->
            advance st;
            let hex = String.sub st.src st.pos (min 4 (String.length st.src - st.pos)) in
            let is_hex = String.contains "0123456789abcdefABCDEF" in
            if String.length hex < 4 || not (String.for_all is_hex hex) then
              fail_at st "bad \\u escape";
            st.pos <- st.pos + 4;
            Buffer.add_char buf (Char.chr (int_of_string ("0x" ^ hex) land 0xFF));
            go ()
        | Some c -> advance st; Buffer.add_char buf c; go ()
        | None -> fail_at st "bad escape")
    | Some c ->
        advance st;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let literal st word v =
  let n = String.length word in
  if st.pos + n > String.length st.src || String.sub st.src st.pos n <> word then
    fail_at st ("expected " ^ word);
  st.pos <- st.pos + n;
  v

(* advances past [c] when it comes next *)
let eat st c = st.pos < String.length st.src && st.src.[st.pos] = c && (advance st; true)

let digits st =
  let d0 = st.pos in
  while st.pos < String.length st.src && st.src.[st.pos] >= '0' && st.src.[st.pos] <= '9' do
    advance st
  done;
  if st.pos = d0 then fail_at st "expected a digit"

(* JSON's number grammar: an optional minus, then 0 or digits not
   starting with 0, then an optional fraction, then an optional exponent *)
let parse_number st =
  let start = st.pos in
  ignore (eat st '-');
  if not (eat st '0') then digits st;
  let frac = eat st '.' && (digits st; true) in
  let exp = (eat st 'e' || eat st 'E') && (ignore (eat st '+' || eat st '-'); digits st; true) in
  let lexeme = String.sub st.src start (st.pos - start) in
  if frac || exp then Num lexeme
  else
    match Int64.of_string_opt lexeme with
    | Some i -> Int i
    | None -> fail_at st "integer out of range"

let rec parse_value st =
  skip_ws st;
  match peek st with
  | Some '{' ->
      advance st;
      skip_ws st;
      if peek st = Some '}' then begin advance st; Obj [] end
      else begin
        let rec members acc =
          skip_ws st;
          let k = parse_string_lit st in
          expect st ':';
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; members ((k, v) :: acc)
          | Some '}' -> advance st; Obj (List.rev ((k, v) :: acc))
          | _ -> fail_at st "expected , or }"
        in
        members []
      end
  | Some '[' ->
      advance st;
      skip_ws st;
      if peek st = Some ']' then begin advance st; List [] end
      else begin
        let rec elements acc =
          let v = parse_value st in
          skip_ws st;
          match peek st with
          | Some ',' -> advance st; elements (v :: acc)
          | Some ']' -> advance st; List (List.rev (v :: acc))
          | _ -> fail_at st "expected , or ]"
        in
        elements []
      end
  | Some '"' -> String (parse_string_lit st)
  | Some ('-' | '0' .. '9') -> parse_number st
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | _ -> fail_at st "unexpected character"

let of_string s =
  let st = { src = s; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length s then fail_at st "trailing garbage";
  v

(* --- accessors ------------------------------------------------------------ *)

let member k = function
  | Obj kvs -> ( try List.assoc k kvs with Not_found -> Null)
  | _ -> Null

let to_list = function List l -> l | _ -> raise (Parse_error "expected list")
let to_int64 = function Int i -> i | _ -> raise (Parse_error "expected int")
let to_str = function String s -> s | _ -> raise (Parse_error "expected string")
let to_bool = function Bool b -> b | _ -> raise (Parse_error "expected bool")
let to_int = function
  | Int i -> Int64.to_int i
  | _ -> raise (Parse_error "expected int")
