(** Minimal self-contained JSON: an immutable value type with an
    encoder (compact and pretty, deterministic field order, float
    round-tripping via shortest-repr), a strict recursive-descent parser
    (UTF-8 escapes, surrogate pairs, trailing-garbage rejection) and
    total accessors.

    Lives in [lib/obs] (stdlib-only, like the rest of the library) so
    the metrics registry, the perf-history database and the service
    protocol all share one value type and one rendering path;
    [Flow_service.Json] re-exports it. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string * int

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* The C primitive behind [Printf]'s [%g]: [Printf.sprintf "%.15g" f]
   is [format_float "%.15g" f] for every finite [f], without the
   format interpretation. *)
external format_float : string -> float -> string = "caml_format_float"

(* Shortest decimal form that round-trips, forced to contain '.' or an
   exponent so the value re-parses as a Float, not an Int. *)
let float_repr f =
  if not (Float.is_finite f) then
    invalid_arg "Json: cannot encode nan/infinity";
  let s =
    let s15 = format_float "%.15g" f in
    if float_of_string s15 = f then s15
    else
      let s16 = format_float "%.16g" f in
      if float_of_string s16 = f then s16 else format_float "%.17g" f
  in
  if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') s then s
  else s ^ ".0"

(* The bytes a JSON string cannot hold raw: quote, backslash and the
   control characters.  A table lookup scans about twice as fast as a
   match on the three ranges. *)
let special =
  String.init 256 (fun i ->
      if i < 0x20 || i = Char.code '"' || i = Char.code '\\' then '\001'
      else '\000')

(* The end of the run of plain string bytes starting at [i]: the index
   of the first special byte, or [stop].  Both the encoder and the
   parser move through strings by these runs. *)
let rec run_end s i stop =
  if
    i >= stop
    || String.unsafe_get special (Char.code (String.unsafe_get s i)) <> '\000'
  then i
  else run_end s (i + 1) stop

let hex_digits = "0123456789abcdef"

let escape_char buf = function
  | '"' -> Buffer.add_string buf "\\\""
  | '\\' -> Buffer.add_string buf "\\\\"
  | '\n' -> Buffer.add_string buf "\\n"
  | '\r' -> Buffer.add_string buf "\\r"
  | '\t' -> Buffer.add_string buf "\\t"
  | '\b' -> Buffer.add_string buf "\\b"
  | '\012' -> Buffer.add_string buf "\\f"
  | c ->
      Buffer.add_string buf "\\u00";
      Buffer.add_char buf hex_digits.[Char.code c lsr 4];
      Buffer.add_char buf hex_digits.[Char.code c land 15]

(* Escape-free runs go in with one [add_substring] each. *)
let escape_into buf s =
  Buffer.add_char buf '"';
  let rec go i =
    let j = run_end s i (String.length s) in
    Buffer.add_substring buf s i (j - i);
    if j < String.length s then (
      escape_char buf (String.unsafe_get s j);
      go (j + 1))
  in
  go 0;
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

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

(* The document is [src] up to [stop]; [scratch] collects the strings
   that hold escapes. *)
type cursor = {
  src : string;
  stop : int;
  scratch : Buffer.t option;
  mutable pos : int;
}

let fail c msg = raise (Parse_error (msg, c.pos))

(* The character at the cursor, or '\000' at end of input: a caller
   that accepts '\000' checks [at_end] first. *)
let at_end c = c.pos >= c.stop
let cur c = if at_end c then '\000' else String.unsafe_get c.src c.pos

let skip_ws c =
  while
    c.pos < c.stop
    && match c.src.[c.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    c.pos <- c.pos + 1
  done

let expect c ch =
  if cur c = ch then c.pos <- c.pos + 1
  else fail c (Printf.sprintf "expected %C" ch)

let literal c word v =
  let n = String.length word in
  if c.pos + n <= c.stop && String.sub c.src c.pos n = word then (
    c.pos <- c.pos + n;
    v)
  else fail c (Printf.sprintf "invalid literal (expected %s)" word)

(* A \uXXXX escape's code unit. *)
let parse_hex4 c =
  if c.pos + 4 > c.stop then fail c "truncated \\u escape";
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

(* One escape sequence, the cursor just past its backslash. *)
let parse_escape c buf =
  if at_end c then fail c "unterminated escape";
  let e = cur c in
  c.pos <- c.pos + 1;
  match e with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'u' ->
      (* surrogate pairs are combined when both halves are present *)
      let hi = parse_hex4 c in
      if
        hi >= 0xD800 && hi <= 0xDBFF
        && c.pos + 1 < c.stop
        && c.src.[c.pos] = '\\'
        && c.src.[c.pos + 1] = 'u'
      then (
        c.pos <- c.pos + 2;
        let lo = parse_hex4 c in
        if lo >= 0xDC00 && lo <= 0xDFFF then
          add_utf8 buf (0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00))
        else (
          add_utf8 buf hi;
          add_utf8 buf lo))
      else add_utf8 buf hi
  | _ -> fail c "invalid escape character"

(* Strings are scanned by runs: an escape-free string is one
   [String.sub]; otherwise the runs between escapes are blitted into a
   buffer, the caller's scratch buffer when it lends one. *)
let parse_string c =
  expect c '"';
  let s = c.src in
  let start = c.pos in
  let stop = run_end s start c.stop in
  if stop < c.stop && String.unsafe_get s stop = '"' then (
    c.pos <- stop + 1;
    String.sub s start (stop - start))
  else begin
    let buf =
      match c.scratch with
      | Some b ->
          Buffer.clear b;
          b
      | None -> Buffer.create (stop - start + 16)
    in
    Buffer.add_substring buf s start (stop - start);
    c.pos <- stop;
    let rec go () =
      if at_end c then fail c "unterminated string";
      match cur c with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
          c.pos <- c.pos + 1;
          parse_escape c buf;
          let stop = run_end s c.pos c.stop in
          Buffer.add_substring buf s c.pos (stop - c.pos);
          c.pos <- stop;
          go ()
      | _ -> fail c "raw control char in string"
    in
    go ();
    Buffer.contents buf
  end

let parse_number c =
  let start = c.pos in
  let is_num_char ch =
    match ch with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while c.pos < c.stop && is_num_char c.src.[c.pos] do
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
  if at_end c then fail c "unexpected end of input";
  match cur c with
  | '{' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if cur c = '}' then (
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
          match cur c with
          | ',' ->
              c.pos <- c.pos + 1;
              fields ((k, v) :: acc)
          | '}' ->
              c.pos <- c.pos + 1;
              Obj (List.rev ((k, v) :: acc))
          | _ -> fail c "expected ',' or '}'"
        in
        fields []
  | '[' ->
      c.pos <- c.pos + 1;
      skip_ws c;
      if cur c = ']' then (
        c.pos <- c.pos + 1;
        List [])
      else
        let rec elems acc =
          let v = parse_value c in
          skip_ws c;
          match cur c with
          | ',' ->
              c.pos <- c.pos + 1;
              elems (v :: acc)
          | ']' ->
              c.pos <- c.pos + 1;
              List (List.rev (v :: acc))
          | _ -> fail c "expected ',' or ']'"
        in
        elems []
  | '"' -> String (parse_string c)
  | 't' -> literal c "true" (Bool true)
  | 'f' -> literal c "false" (Bool false)
  | 'n' -> literal c "null" Null
  | '-' | '0' .. '9' -> parse_number c
  | ch -> fail c (Printf.sprintf "unexpected character %C" ch)

(** Parse the document [s], or its first [len] bytes: a caller reading
    frames into a reused buffer parses them in place (no decoded value
    shares [s] or [scratch]; strings are copied out).  A string with
    escapes is decoded in [scratch] when given, so a long one costs one
    allocation, its own. *)
let parse ?len ?scratch s =
  let stop = match len with Some n -> n | None -> String.length s in
  if stop < 0 || stop > String.length s then invalid_arg "Json.parse";
  let c = { src = s; stop; scratch; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> stop then fail c "trailing garbage after document";
  v

let parse_result ?len ?scratch s =
  match parse ?len ?scratch s with
  | v -> Ok v
  | exception Parse_error (msg, pos) ->
      Error (Printf.sprintf "offset %d: %s" pos msg)

(* ------------------------------------------------------------------ *)
(* Accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let to_int_opt = function
  | Int n -> Some n
  | Float f when Float.is_integer f && Float.abs f < 1e15 ->
      Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int n -> Some (float_of_int n)
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List vs -> Some vs | _ -> None

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b ->
      Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)
  | String a, String b -> String.equal a b
  | List a, List b -> List.length a = List.length b && List.for_all2 equal a b
  | Obj a, Obj b ->
      List.length a = List.length b
      && List.for_all2
           (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb)
           a b
  | _ -> false
