(** Attribute values attached to trace spans, provenance records and log
    lines: a tiny closed universe, rendered for people by {!to_display}
    and as JSON by {!to_json}. *)

type value =
  | Bool of bool
  | Int of int
  | Float of float
  | String of string

(** Human-oriented rendering (log lines, [psaflow explain]). *)
let to_display = function
  | Bool b -> string_of_bool b
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | String s -> s

(** The one JSON form of a value.  JSON has no nan or infinity, so a
    non-finite float travels as its display string: "inf", "nan". *)
let to_json = function
  | Bool b -> Json.Bool b
  | Int i -> Json.Int i
  | Float f when Float.is_finite f -> Json.Float f
  | Float f -> Json.String (to_display (Float f))
  | String s -> Json.String s
