(** Loop unrolling — FPGA-path transforms.

    Two forms, as in the paper:

    - {!full_unroll}: literally replicate the body of a fixed-bound loop
      ("Unroll Fixed Loops"), used for small inner loops so the FPGA
      pipeline has no inner control flow;
    - {!annotate_unroll}: attach [#pragma unroll N] to a loop, the form
      the "Unroll Until Overmap" DSE iterates (Fig. 2) — the HLS
      compiler (here: the FPGA resource model) interprets the factor. *)

open Minic

exception Cannot_unroll of string

(** Replace a fixed-bound canonical loop by its fully unrolled body: one
    copy of the body per iteration, the index substituted by its constant
    value.  The copies carry placeholder ids until they are spliced in. *)
let full_unroll_stmt (s : Ast.stmt) : Ast.block =
  match s.snode with
  | Ast.For (h, body) -> (
      match (h.init.enode, h.bound.enode, h.step.enode) with
      | Ast.Int_lit i0, Ast.Int_lit bound, Ast.Int_lit step when step > 0 ->
          let last = if h.inclusive then bound else bound - 1 in
          let copies = ref [] in
          let i = ref i0 in
          while !i <= last do
            let value = Builder.int !i in
            let copy =
              List.map
                (fun st ->
                  Artisan.Rewrite.subst_var_stmt ~name:h.index ~by:value
                    (Artisan.Rewrite.refresh_stmt st))
                body
            in
            copies := copy :: !copies;
            i := !i + step
          done;
          List.concat (List.rev !copies)
      | _ -> raise (Cannot_unroll "loop bounds are not compile-time constants"))
  | _ -> raise (Cannot_unroll "not a for loop")

(** Fully unroll every fixed-bound inner loop of [kernel] whose trip
    count is at most [threshold].  Returns the program and the number of
    loops unrolled ("Unroll Fixed Loops" task). *)
let unroll_fixed_inner_loops ?(threshold = Analysis.Features.full_unroll_threshold)
    (p : Ast.program) ~kernel : Ast.program * int =
  (* iterate to fixpoint: unrolling can expose further fixed loops *)
  let count = ref 0 in
  let rec go p =
    let target =
      Artisan.Query.(
        stmts_in
          ~where:
            (is_for &&& not_ is_outermost_loop
            &&& fun ctx ->
            match static_trip_count ctx.stmt with
            | Some n -> n <= threshold
            | None -> false)
          p kernel)
    in
    match target with
    | [] -> p
    | m :: _ ->
        incr count;
        let unrolled = full_unroll_stmt m.Artisan.Query.stmt in
        go (Artisan.Instrument.replace ~target:m.Artisan.Query.stmt.sid unrolled p)
  in
  let p = go p in
  (p, !count)

(** Annotate every fixed-bound inner loop of [kernel] with a full-unroll
    pragma ([#pragma unroll] with no factor, HLS convention).  The
    generated source stays compact and readable; the FPGA resource model
    prices the replicated operators from the loop's static trip count.
    Returns the program and the number of loops annotated. *)
let annotate_fixed_inner_loops
    ?(threshold = Analysis.Features.full_unroll_threshold) (p : Ast.program)
    ~kernel : Ast.program * int =
  let targets =
    Artisan.Query.(
      stmts_in
        ~where:
          (is_for &&& not_ is_outermost_loop
          &&& fun ctx ->
          match static_trip_count ctx.stmt with
          | Some n -> n <= threshold
          | None -> false)
        p kernel)
  in
  ( List.fold_left
      (fun acc (m : Artisan.Query.match_ctx) ->
        Artisan.Instrument.set_pragma ~target:m.stmt.sid
          { Ast.pname = "unroll"; pargs = [] }
          acc)
      p targets,
    List.length targets )

(** Attach (or update) [#pragma unroll N] on the statement with id
    [target] — the primitive the unroll-until-overmap DSE iterates. *)
let annotate_unroll ~target ~factor (p : Ast.program) : Ast.program =
  Artisan.Instrument.set_pragma ~target
    { Ast.pname = "unroll"; pargs = [ string_of_int factor ] }
    p

(** The unroll factor annotated on a statement, if any. *)
let annotated_factor (s : Ast.stmt) : int option =
  List.find_map
    (fun (pr : Ast.pragma) ->
      match (pr.pname, pr.pargs) with
      | "unroll", [ n ] -> int_of_string_opt n
      | _ -> None)
    s.pragmas

(** Unroll factor annotated on the outermost loop of [kernel] (1 if
    none). *)
let kernel_unroll_factor (p : Ast.program) ~kernel : int =
  match
    Artisan.Query.(stmts_in ~where:(is_for &&& is_outermost_loop) p kernel)
  with
  | m :: _ -> Option.value ~default:1 (annotated_factor m.Artisan.Query.stmt)
  | [] -> 1
