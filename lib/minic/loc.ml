(** Source locations for MiniC programs.

    Locations are carried on every AST node so that analyses and the
    pretty-printer can report positions in the original source, mirroring
    how Artisan ASTs track source ranges. *)

type t = {
  line : int;  (** 1-based line number *)
  col : int;  (** 0-based column *)
}

(** Location used for synthesised nodes (inserted by transforms). *)
let none = { line = 0; col = 0 }

let make ~line ~col = { line; col }

let is_synthetic t = t.line = 0

let pp_short fmt t =
  if is_synthetic t then Format.fprintf fmt "<gen>"
  else Format.fprintf fmt "%d:%d" t.line t.col
