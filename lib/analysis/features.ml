(** Kernel feature vector.

    Bundles everything the target-independent analyses learned about an
    extracted hotspot kernel into one record.  This is the "information
    accrued from target-independent analysis tasks" that the PSA strategy
    consumes at branch point A (Fig. 3), and the input from which the
    device models price candidate designs. *)

open Minic

(** One inner (non-outermost) loop of the kernel. *)
type inner_loop = {
  il_sid : int;
  il_static_trip : int option;
  il_mean_trip : float;
  il_iters_per_outer : float;
      (** total iterations of this loop per outer-loop iteration *)
  il_innermost : bool;
  il_parallel : bool;
  il_has_reduction : bool;
  il_fully_unrollable : bool;
      (** fixed trip count at or under the unroll threshold *)
}

(** Per-pointer-argument observations. *)
type arg_feat = {
  af_name : string;
  af_footprint : int;  (** bytes of the touched range *)
  af_bytes_in : float;  (** per call *)
  af_bytes_out : float;  (** per call *)
}

type t = {
  kernel : string;
  calls : int;  (** kernel invocations over the whole run *)
  outer_trip : float;  (** mean outer-loop iterations per invocation *)
  (* dynamic, per invocation *)
  flops_per_call : float;
  sfu_per_call : float;
  bytes_accessed_per_call : float;  (** on-device array traffic *)
  bytes_in_per_call : float;  (** host->device transfer requirement *)
  bytes_out_per_call : float;
  cpu_cycles_per_call : float;  (** single-thread reference cost *)
  (* static, per outer iteration *)
  ops_per_iter : Opcount.t;
      (** total work of one outer iteration (inner loops weighted by trip
          count) — drives throughput models *)
  hw_ops_per_iter : Opcount.t;
      (** operator instances a pipelined implementation must place: fixed
          small inner loops weighted by their (unrolled) trip count,
          unbounded inner loops by 1 (hardware is reused across their
          iterations) — drives the FPGA resource model *)
  inner_read_bytes : int;
      (** footprint of read-only arrays read inside inner loops: data a
          pipelined design banks into BRAM, replicated per unroll *)
  (* structure *)
  outer_parallel : bool;
  outer_has_reductions : bool;
  inner_loops : inner_loop list;
  regs_estimate : int;  (** GPU registers per thread estimate *)
  locals_count : int;  (** scalar locals (FPGA pipeline state depth) *)
  gather_fraction : float;  (** fraction of indirect array accesses *)
  gathered_args : string list;  (** pointer args accessed indirectly *)
  args : arg_feat list;
      (** per pointer arg: footprint and transfer requirements (on-chip
          caching feasibility for BRAM / shared memory) *)
  intensity : Intensity.t;
  no_alias : bool;
}

(** Threshold under which a fixed-bound inner loop counts as fully
    unrollable on an FPGA (Fig. 3's "can fully unroll?" test). *)
let full_unroll_threshold = 64

(* ------------------------------------------------------------------ *)
(* Register pressure estimate                                          *)
(* ------------------------------------------------------------------ *)

(** Estimate GPU registers per thread for the kernel: scalar locals stay
    live across the (often long) straight-line body, math calls need
    temporary ranges, and deep expressions need scratch registers.  The
    estimate is clamped to the architectural maximum of 255. *)
let estimate_registers (p : Ast.program) kernel =
  let f = Ast.find_func p kernel in
  let locals = ref 0 in
  let math_sites = ref 0 in
  let max_depth = ref 0 in
  let rec expr_depth (e : Ast.expr) =
    match e.enode with
    | Ast.Int_lit _ | Ast.Float_lit _ | Ast.Bool_lit _ | Ast.Var _ -> 1
    | Ast.Unop (_, a) | Ast.Cast (_, a) -> 1 + expr_depth a
    | Ast.Binop (_, a, b) | Ast.Index (a, b) ->
        1 + max (expr_depth a) (expr_depth b)
    | Ast.Call (_, args) ->
        1 + List.fold_left (fun m a -> max m (expr_depth a)) 0 args
  in
  Ast.iter_func
    (fun s ->
      (match s.snode with
      | Ast.Decl { dsize = None; _ } -> incr locals
      | _ -> ());
      List.iter
        (fun e ->
          max_depth := max !max_depth (expr_depth e);
          Ast.iter_expr
            (fun sub ->
              match sub.enode with
              | Ast.Call (name, _) when Minic.Builtins.cost_class name <> None ->
                  incr math_sites
              | _ -> ())
            e)
        (Ast.stmt_exprs s))
    f;
  let estimate =
    16 + (2 * !locals) + (2 * !math_sites) + !max_depth
    + (2 * List.length f.fparams)
  in
  (min 255 estimate, !locals)

(* ------------------------------------------------------------------ *)
(* Gather fraction                                                     *)
(* ------------------------------------------------------------------ *)

(** Fraction of array accesses in the kernel whose index is not affine in
    any enclosing loop index — indirect "gather" accesses that neither
    coalesce on a GPU nor burst on an FPGA — together with the names of
    the arrays accessed that way. *)
let gather_info (p : Ast.program) kernel =
  let f = Ast.find_func p kernel in
  let names = ref [] in
  let data_derived = Hashtbl.create 8 in
  let total = ref 0 and gathers = ref 0 in
  let rec walk loop_idxs (s : Ast.stmt) =
    let idxs =
      match s.snode with
      | Ast.For (h, _) -> h.index :: loop_idxs
      | _ -> loop_idxs
    in
    (* scalar locals assigned from array contents: indexing through them
       is a data-dependent gather, e.g. w[c] where c was computed from
       data *)
    let reads_array e =
      let found = ref false in
      Ast.iter_expr
        (fun sub ->
          match sub.enode with Ast.Index _ -> found := true | _ -> ())
        e;
      !found
    in
    (match s.snode with
    | Ast.Decl { dname; dsize = None; dinit = Some init; _ }
      when reads_array init ->
        Hashtbl.replace data_derived dname ()
    | Ast.Assign (Ast.Lvar v, _, rhs) when reads_array rhs ->
        Hashtbl.replace data_derived v ()
    | _ -> ());
    let check_expr e =
      Ast.iter_expr
        (fun sub ->
          match sub.enode with
          | Ast.Index (base, i) ->
              incr total;
              (* a gather reads through an index that is non-affine in an
                 enclosing loop variable (e.g. w[idx[k]]) or goes through
                 a data-derived scalar (e.g. w[c] with c computed from
                 array contents) *)
              let non_affine =
                List.exists
                  (fun v ->
                    Dependence.mentions_var v i
                    && Dependence.affine_coeff v i = None)
                  idxs
              in
              let data_dependent =
                let found = ref false in
                Ast.iter_expr
                  (fun e ->
                    match e.enode with
                    | Ast.Var v when Hashtbl.mem data_derived v -> found := true
                    | _ -> ())
                  i;
                !found
              in
              if non_affine || data_dependent then (
                incr gathers;
                match base.enode with
                | Ast.Var a when not (List.mem a !names) -> names := a :: !names
                | _ -> ())
          | _ -> ())
        e
    in
    List.iter check_expr (Ast.stmt_exprs s);
    List.iter (fun b -> List.iter (walk idxs) b) (Ast.stmt_blocks s)
  in
  List.iter (walk []) f.fbody;
  let fraction =
    if !total = 0 then 0.0 else float_of_int !gathers /. float_of_int !total
  in
  (fraction, List.rev !names)

(* ------------------------------------------------------------------ *)
(* Assembly                                                            *)
(* ------------------------------------------------------------------ *)

(** Assemble the feature vector of kernel [kernel] of [p], extracted
    from loop [loop_sid]: pure projection of the dynamic observations
    (data in/out, alias, trip counts, kernel cost) the fused profile
    [fp] of the original program tracked for that loop, plus the static
    analyses of [p] (dependence, intensity, op census, register
    estimate).  Extraction keeps every node id inside the loop, so the
    kernel's loops carry the ids the run observed. *)
let of_fused (fp : Minic_interp.Fused_profile.t) ~loop_sid (p : Ast.program)
    ~kernel : t =
  let prof = Minic_interp.Fused_profile.profile fp in
  let trips = Trip_count.of_profile prof in
  let kobs =
    match Minic_interp.Fused_profile.kernel_obs fp ~loop_sid with
    | Some k -> k
    | None ->
        Minic_interp.Value.err
          "kernel '%s' (loop #%d) never ran during feature analysis" kernel
          loop_sid
  in
  let calls = max 1 kobs.calls in
  let fcalls = float_of_int calls in
  let outer_sid, outer_dep =
    match Dependence.outermost p kernel with
    | Some info -> (Some info.loop_sid, Some info)
    | None -> (None, None)
  in
  let outer_trip =
    match outer_sid with
    | Some sid -> Trip_count.mean trips sid
    | None -> 1.0
  in
  let dyn_trip sid = Trip_count.mean trips sid in
  let total_outer_iters =
    Float.max 1.0 (outer_trip *. float_of_int calls)
  in
  let inner_loops =
    Dependence.inner_loops p kernel
    |> List.map (fun (info : Dependence.loop_info) ->
           let stmt_ctx =
             match
               Artisan.Query.(
                 stmts_in
                   ~where:(fun ctx -> ctx.stmt.sid = info.loop_sid)
                   p kernel)
             with
             | m :: _ -> Some m
             | [] -> None
           in
           let static_trip =
             Option.bind stmt_ctx (fun m ->
                 Artisan.Query.static_trip_count m.Artisan.Query.stmt)
           in
           let innermost =
             match stmt_ctx with
             | Some m -> Artisan.Query.is_innermost_loop m
             | None -> false
           in
           let total_iters =
             match Trip_count.find trips info.loop_sid with
             | Some s -> float_of_int s.total_iterations
             | None -> 0.0
           in
           {
             il_sid = info.loop_sid;
             il_static_trip = static_trip;
             il_mean_trip = Trip_count.mean trips info.loop_sid;
             il_iters_per_outer = total_iters /. total_outer_iters;
             il_innermost = innermost;
             il_parallel = info.parallel;
             il_has_reduction = info.reductions <> [];
             il_fully_unrollable =
               (match static_trip with
               | Some n -> n <= full_unroll_threshold
               | None -> false);
           })
  in
  let alias = Alias.of_kernel_obs ~kernel kobs in
  let total_in =
    Array.fold_left
      (fun acc (a : Minic_interp.Profile.arg_obs) -> acc + a.bytes_in)
      0 kobs.args
  in
  let total_out =
    Array.fold_left
      (fun acc (a : Minic_interp.Profile.arg_obs) -> acc + a.bytes_out)
      0 kobs.args
  in
  let kernel_fn = Ast.find_func p kernel in
  let elem_bytes_of name =
    match
      List.find_opt (fun (pr : Ast.param) -> pr.pname_ = name) kernel_fn.fparams
    with
    | Some { ptyp = Ast.Tptr t; _ } -> Ast.sizeof t
    | _ -> 8
  in
  let args =
    Array.to_list kobs.args
    |> List.map (fun (a : Minic_interp.Profile.arg_obs) ->
           let span =
             List.fold_left
               (fun acc (_, lo, hi) -> acc + (hi - lo + 1))
               0 a.regions_touched
           in
           {
             af_name = a.arg_name;
             af_footprint = span * elem_bytes_of a.arg_name;
             af_bytes_in = float_of_int a.bytes_in /. fcalls;
             af_bytes_out = float_of_int a.bytes_out /. fcalls;
           })
  in
  let regs_estimate, locals_count = estimate_registers p kernel in
  let gather_fraction, gathered_args = gather_info p kernel in
  (* read-only arrays read inside inner loops *)
  let written_arrays = Hashtbl.create 8 in
  Ast.iter_func
    (fun s ->
      match s.snode with
      | Ast.Assign (Ast.Lindex ({ enode = Ast.Var a; _ }, _), _, _) ->
          Hashtbl.replace written_arrays a ()
      | _ -> ())
    kernel_fn;
  let outer_index =
    match outer_dep with Some d -> d.Dependence.index | None -> ""
  in
  let inner_read_names = ref [] in
  let rec scan_depth depth (s : Ast.stmt) =
    let depth' =
      match s.snode with Ast.For _ | Ast.While _ -> depth + 1 | _ -> depth
    in
    if depth' >= 2 then
      List.iter
        (fun e ->
          Ast.iter_expr
            (fun sub ->
              match sub.enode with
              | Ast.Index ({ enode = Ast.Var a; _ }, ix)
                when (not (Hashtbl.mem written_arrays a))
                     && (not (Dependence.mentions_var outer_index ix))
                     && not (List.mem a !inner_read_names) ->
                  (* arrays whose inner-loop reads do not move with the
                     outer index are re-read every outer iteration:
                     on-chip caching candidates.  Outer-indexed arrays
                     stream instead. *)
                  inner_read_names := a :: !inner_read_names
              | _ -> ())
            e)
        (Ast.stmt_exprs s);
    List.iter
      (fun b -> List.iter (scan_depth depth') b)
      (Ast.stmt_blocks s)
  in
  List.iter (scan_depth 0) kernel_fn.fbody;
  {
    kernel;
    calls;
    outer_trip;
    flops_per_call = float_of_int kobs.k_flops /. fcalls;
    sfu_per_call = float_of_int kobs.k_sfu /. fcalls;
    bytes_accessed_per_call =
      float_of_int (kobs.k_bytes_read + kobs.k_bytes_written) /. fcalls;
    bytes_in_per_call = float_of_int total_in /. fcalls;
    bytes_out_per_call = float_of_int total_out /. fcalls;
    cpu_cycles_per_call = kobs.k_cycles /. fcalls;
    ops_per_iter = Opcount.per_outer_iteration ~dyn_trip p kernel;
    hw_ops_per_iter =
      Opcount.per_outer_iteration ~dyn_trip:(fun _ -> 1.0) p kernel;
    inner_read_bytes =
      List.fold_left
        (fun acc a ->
          if List.mem a.af_name !inner_read_names then acc + a.af_footprint
          else acc)
        0 args;
    outer_parallel =
      (match outer_dep with
      | Some d -> d.parallel_with_reductions
      | None -> false);
    outer_has_reductions =
      (match outer_dep with Some d -> d.reductions <> [] | None -> false);
    inner_loops;
    regs_estimate;
    locals_count;
    gather_fraction;
    gathered_args;
    args;
    intensity = Intensity.analyze p kernel;
    no_alias = alias.no_alias;
  }

(* Feature records are pure projections of the fused profile of
   [source] and the static analyses of [p], so they memoize per (kernel
   program key, loop id, kernel name) — the program key is
   {!Ast.digest}, structure plus loop ids with float literals as raw
   bits, and the workload size is baked into the program.  The
   kernel program determines its source (extraction only moves the loop
   into the kernel), so the source needs no key component.  The memo
   rides the stage hierarchy and is off under PSAFLOW_NO_MEMO; a hit
   records no profile spans, tracing or not. *)
let memo : t Flow_memo.Cache.t = Flow_memo.Cache.create ~name:"features" ()

(** Run the full target-independent analysis battery on kernel [kernel]
    of [p], extracted from loop [loop_sid] of [source], and assemble the
    feature vector: the shared fused profiling run of [source], then a
    pure projection. *)
let analyze ~(source : Ast.program) ~loop_sid (p : Ast.program) ~kernel : t =
  Flow_obs.Trace.with_span ~cat:"analysis" "analysis.features"
    ~args:[ ("kernel", Flow_obs.Attr.String kernel) ]
  @@ fun () ->
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "analysis_features";
  Flow_memo.Cache.find_or_compute memo
    ~key:
      (Printf.sprintf "f:%s:%d:%s"
         (Digest.to_hex (Ast.digest p))
         loop_sid kernel)
    (fun () -> of_fused (Hotspot.fused ~loop_sid source) ~loop_sid p ~kernel)

(** Total single-thread CPU seconds of the hotspot over the whole run —
    the Fig. 5 baseline denominator. *)
let cpu_seconds ?(clock_hz = 2.8e9) t =
  t.cpu_cycles_per_call *. float_of_int t.calls /. clock_hz

(** Arithmetic intensity with respect to offload traffic: kernel FLOPs per
    byte that a host<->accelerator transfer would have to move.  This is
    the FLOPs/B the Fig. 3 strategy compares against its threshold X. *)
let offload_intensity t =
  let bytes = t.bytes_in_per_call +. t.bytes_out_per_call in
  if bytes <= 0.0 then Float.infinity else t.flops_per_call /. bytes

(** Fig. 3's "inner loops w/ deps?" test: is there an inner loop carrying
    a dependence (pipelinable on FPGA rather than data-parallel)? *)
let has_dependent_inner_loops t =
  List.exists (fun il -> not il.il_parallel) t.inner_loops

(** Fig. 3's "can fully unroll?" test. *)
let inner_loops_fully_unrollable t =
  t.inner_loops <> []
  && List.for_all (fun il -> il.il_fully_unrollable) t.inner_loops
