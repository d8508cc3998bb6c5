(** Hotspot loop extraction — target-independent transform.

    "Once a hotspot is identified, it is extracted into an isolated
    function for further analysis and eventual offloading, replacing the
    original loop with a function call."

    The extracted kernel takes every free variable of the loop as a
    parameter: arrays as pointers, scalars by value.  Extraction refuses
    loops that write free scalars (the benchmarks' hotspots write arrays
    only; the paper's flow has the same by-construction property since
    offloaded kernels return results through buffers). *)

open Minic

exception Not_extractable of string

(** Default name given to the extracted kernel. *)
let default_kernel_name = "hotspot_kernel"

(** Free scalar variables written (not just read) by the statement. *)
let written_free_scalars (stmt : Ast.stmt) =
  let free = Artisan.Query.free_vars stmt in
  let written = ref [] in
  Ast.iter_stmt
    (fun s ->
      match s.Ast.snode with
      | Ast.Assign (Ast.Lvar v, _, _) when List.mem v free ->
          if not (List.mem v !written) then written := v :: !written
      | _ -> ())
    stmt;
  List.rev !written

(* ------------------------------------------------------------------ *)
(* Extraction                                                          *)
(* ------------------------------------------------------------------ *)

type result = {
  program : Ast.program;  (** program with the kernel function added *)
  kernel_name : string;
  params : (Ast.typ * string) list;
  loop_sid : int;  (** the hotspot loop's id, preserved inside the kernel *)
}

(** Extract the loop with node id [loop_sid] (a hotspot found by
    {!Analysis.Hotspot.detect}) out of function [func] into a new kernel
    function.

    @raise Not_extractable if the loop writes free scalars or cannot be
      found. *)
let hotspot ?(kernel_name = default_kernel_name) ?(func = "main")
    (p : Ast.program) ~loop_sid : result =
  let host =
    match Ast.find_func_opt p func with
    | Some f -> f
    | None -> raise (Not_extractable ("no function " ^ func))
  in
  let loop =
    let found = ref None in
    Ast.iter_func
      (fun s ->
        if s.Ast.sid = loop_sid && Artisan.Query.is_stmt_loop s then
          found := Some s)
      host;
    match !found with
    | Some s -> s
    | None ->
        raise
          (Not_extractable
             (Printf.sprintf "loop #%d not found in %s" loop_sid func))
  in
  (match written_free_scalars loop with
  | [] -> ()
  | vs ->
      raise
        (Not_extractable
           ("hotspot writes free scalars: " ^ String.concat ", " vs)));
  let params =
    match Artisan.Query.kernel_params p host loop with
    | Ok params -> params
    | Error v ->
        raise
          (Not_extractable (Printf.sprintf "cannot type free variable '%s'" v))
  in
  let kernel = Builder.func kernel_name params [ loop ] in
  let call =
    Builder.call_stmt kernel_name
      (List.map (fun (_, v) -> Builder.var v) params)
  in
  (* add the kernel before splicing in the call, so the call's new ids
     are numbered above the loop's *)
  let p =
    Artisan.Instrument.add_func kernel p
    |> Artisan.Rewrite.edit_stmts_in
         (fun s -> if s.Ast.sid = loop_sid then [ call ] else [ s ])
         func
  in
  { program = p; kernel_name; params; loop_sid }

(** Convenience: detect the hotspot of [p] and extract it in one step. *)
let detect_and_extract ?kernel_name ?func (p : Ast.program) : result option =
  match Analysis.Hotspot.detect ?func p with
  | None -> None
  | Some h -> Some (hotspot ?kernel_name ?func p ~loop_sid:h.loop_sid)
