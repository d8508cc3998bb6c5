(** The JSON codec as it was before its run-scanning rewrite: a
    character-at-a-time encoder and parser and a [Printf]-based
    [float_repr], kept verbatim as the differential oracle for
    [Flow_obs.Json] (test_service suite [json]).  It builds the same
    [Json.t] values and raises the same [Json.Parse_error]. *)

open Flow_obs.Json

(* Shortest decimal form that round-trips, forced to contain '.' or an
   exponent so the value re-parses as a Float, not an Int. *)
let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Json: cannot encode nan/infinity";
  let s =
    let s15 = Printf.sprintf "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = Printf.sprintf "%.16g" f in
      if float_of_string s16 = f then s16 else Printf.sprintf "%.17g" f
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec encode buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int n -> Buffer.add_string buf (string_of_int n)
  | Float f -> Buffer.add_string buf (float_repr f)
  | String s -> escape_into buf s
  | List vs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          encode buf v)
        vs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          encode buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  encode buf v;
  Buffer.contents buf

let to_string_pretty v =
  let buf = Buffer.create 256 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent = function
    | (Null | Bool _ | Int _ | Float _ | String _) as v -> encode buf v
    | List [] -> Buffer.add_string buf "[]"
    | Obj [] -> Buffer.add_string buf "{}"
    | List vs ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            go (indent + 2) v)
          vs;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_string buf ",\n";
            pad (indent + 2);
            escape_into buf k;
            Buffer.add_string buf ": ";
            go (indent + 2) v)
          fields;
        Buffer.add_char buf '\n';
        pad indent;
        Buffer.add_char buf '}'
  in
  go 0 v;
  Buffer.add_char buf '\n';
  Buffer.contents buf

type cursor = { src : string; mutable pos : int }

let fail c msg = raise (Parse_error (msg, c.pos))
let peek c = if c.pos < String.length c.src then Some c.src.[c.pos] else None

let skip_ws c =
  while
    c.pos < String.length c.src
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  match peek c with
  | Some x when x = ch -> c.pos <- c.pos + 1
  | _ -> fail c (Printf.sprintf "expected %C" ch)

let literal c word v =
  let n = String.length word in
  if
    c.pos + n <= String.length c.src
    && String.sub c.src c.pos n = word
  then (
    c.pos <- c.pos + n;
    v)
  else fail c (Printf.sprintf "invalid literal (expected %s)" word)

(* A \uXXXX escape, encoded into the buffer as UTF-8; surrogate pairs are
   combined when both halves are present. *)
let parse_hex4 c =
  if c.pos + 4 > String.length c.src then fail c "truncated \\u escape";
  let s = String.sub c.src c.pos 4 in
  match int_of_string_opt ("0x" ^ s) with
  | Some n ->
      c.pos <- c.pos + 4;
      n
  | None -> fail c "invalid \\u escape"

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then (
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
  else if cp < 0x10000 then (
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))
  else (
    Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F))))

let parse_string c =
  expect c '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek c with
    | None -> fail c "unterminated string"
    | Some '"' -> c.pos <- c.pos + 1
    | Some '\\' -> (
        c.pos <- c.pos + 1;
        match peek c with
        | None -> fail c "unterminated escape"
        | Some e ->
            c.pos <- c.pos + 1;
            (match e with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'u' ->
                let hi = parse_hex4 c in
                if
                  hi >= 0xD800 && hi <= 0xDBFF
                  && c.pos + 1 < String.length c.src
                  && c.src.[c.pos] = '\\'
                  && c.src.[c.pos + 1] = 'u'
                then (
                  c.pos <- c.pos + 2;
                  let lo = parse_hex4 c in
                  if lo >= 0xDC00 && lo <= 0xDFFF then
                    add_utf8 buf
                      (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
                  else (
                    add_utf8 buf hi;
                    add_utf8 buf lo))
                else add_utf8 buf hi
            | _ -> fail c "invalid escape character");
            go ())
    | Some ch when Char.code ch < 0x20 -> fail c "raw control char in string"
    | Some ch ->
        Buffer.add_char buf ch;
        c.pos <- c.pos + 1;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    c.pos < String.length c.src && is_num_char c.src.[c.pos]
  do
    c.pos <- c.pos + 1
  done;
  let s = String.sub c.src start (c.pos - start) in
  let is_floatish =
    String.exists (fun ch -> ch = '.' || ch = 'e' || ch = 'E') s
  in
  if not is_floatish then
    match int_of_string_opt s with
    | Some n -> Int n
    | None -> (
        (* out of int range: fall back to float *)
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail { c with pos = start } "invalid number")
  else
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail { c with pos = start } "invalid number"

let rec parse_value c =
  skip_ws c;
  match peek c with
  | None -> fail c "unexpected end of input"
  | Some '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some '}' then (
        c.pos <- c.pos + 1;
        Obj [])
      else
        let rec fields acc =
          skip_ws c;
          let k = parse_string c in
          skip_ws c;
          expect c ':';
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              fields ((k, v) :: acc)
          | Some '}' ->
              c.pos <- c.pos + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail c "expected ',' or '}'"
        in
        fields []
  | Some '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if peek c = Some ']' then (
        c.pos <- c.pos + 1;
        List [])
      else
        let rec elems acc =
          let v = parse_value c in
          skip_ws c;
          match peek c with
          | Some ',' ->
              c.pos <- c.pos + 1;
              elems (v :: acc)
          | Some ']' ->
              c.pos <- c.pos + 1;
              List (List.rev (v :: acc))
          | _ -> fail c "expected ',' or ']'"
        in
        elems []
  | Some '"' -> String (parse_string c)
  | Some 't' -> literal c "true" (Bool true)
  | Some 'f' -> literal c "false" (Bool false)
  | Some 'n' -> literal c "null" Null
  | Some ('-' | '0' .. '9') -> parse_number c
  | Some ch -> fail c (Printf.sprintf "unexpected character %C" ch)

let parse s =
  let c = { src = s; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> String.length s then fail c "trailing garbage after document";
  v

let parse_result s =
  match parse s with
  | v -> Ok v
  | exception Parse_error (msg, pos) ->
      Error (Printf.sprintf "offset %d: %s" pos msg)
