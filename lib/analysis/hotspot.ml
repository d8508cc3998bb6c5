(** Hotspot loop detection — dynamic design-flow task.

    Mirrors the paper: the task executes the program and identifies the
    most time-consuming loop as the acceleration candidate.  The paper's
    implementation wraps candidate loops in timers
    ([__timer_start]/[__timer_stop]) and runs the instrumented copy;
    here detection projects the interpreter's own per-loop cycle
    accounting out of the shared fused profile ({!Minic_interp.Fused_profile},
    one run that also tracks every loop selection can stop at, so the
    kernel analyses read the chosen loop from the same run),
    which measures exactly what the timers would — the timer calls carry
    zero virtual-cycle cost, so [timer_total sid] of an instrumented run
    equals [loop_stat sid].cycles of the bare run bit-for-bit (asserted
    by the test suite).  The instrumentation helpers remain available
    ({!instrument}) for the reference comparison.

    Selection starts at the most expensive outermost loop of [main] and
    descends while the current loop is not parallelisable (per the static
    dependence analysis) and a directly nested loop captures most of its
    time — so an application whose top-level loop is a sequential driver
    (K-Means' convergence iterations, an ODE solver's timestepping)
    offloads the parallel work loop inside it, invoked once per driver
    iteration, which is how the paper's designs transfer data per kernel
    call. *)

open Minic

type t = {
  loop_sid : int;  (** node id of the hotspot loop in the original AST *)
  func_name : string;  (** function containing the loop *)
  cycles : float;  (** virtual cycles spent in the loop (inclusive) *)
  total_cycles : float;  (** whole-program cycles *)
  share : float;  (** fraction of program time spent in the loop *)
  descended_from : int list;  (** enclosing loops skipped as sequential *)
}

let pp fmt h =
  Format.fprintf fmt "hotspot loop #%d in %s: %.3g cycles (%.1f%% of total)"
    h.loop_sid h.func_name h.cycles (100.0 *. h.share)

(** Fraction of a parent loop's time a nested loop must capture for the
    selection to descend into it. *)
let descend_threshold = 0.5

(** All [for] loops of [func] (any depth) with their contexts. *)
let candidates ?(func = "main") (p : Ast.program) =
  Artisan.Query.(stmts_in ~where:is_for p func)

(** Instrument each candidate loop with a timer keyed by its node id
    (the paper's mechanism — kept as the reference the fused projection
    is checked against). *)
let instrument ?func (p : Ast.program) =
  List.fold_left
    (fun acc (m : Artisan.Query.match_ctx) ->
      Artisan.Instrument.wrap_with_timer ~target:m.stmt.sid ~key:m.stmt.sid acc)
    p (candidates ?func p)

(* The candidates with no enclosing loop, and the direct loop children
   of a loop: candidates whose nearest enclosing loop it is. *)
let nesting cands =
  let nearest_enclosing_loop (m : Artisan.Query.match_ctx) =
    List.find_opt Artisan.Query.is_stmt_loop m.path
    |> Option.map (fun (s : Ast.stmt) -> s.sid)
  in
  let top_level =
    List.filter (fun m -> nearest_enclosing_loop m = None) cands
  in
  let children sid =
    List.filter (fun m -> nearest_enclosing_loop m = Some sid) cands
  in
  (top_level, children)

(* The tracking entry of a loop: its id and the pointer parameters of
   the kernel extraction would make of it, in parameter order.  [None]
   when a free variable has no type: such a loop cannot be extracted. *)
let track_entry p (m : Artisan.Query.match_ctx) =
  match Artisan.Query.kernel_params p m.func m.stmt with
  | Error _ -> None
  | Ok params ->
      Some
        ( m.stmt.sid,
          List.filter_map
            (function Ast.Tptr _, v -> Some v | _ -> None)
            params )

(** The loops {!of_fused}'s descent can stop at without passing
    through, with the pointer arguments of the kernels extraction would
    make of them: starting from the top-level candidates of [func], a
    loop the static dependence analysis finds parallel, or sequential
    with no candidate children, is tracked; a sequential driver with
    children is descended through instead.  Drivers stay out because a
    tracked loop's whole body runs on the per-access tracking path, and
    a driver's body is nearly the whole run (kmeans: 106 ms tracked
    against 53 ms without drivers).  A function of the program, so one
    tracked profiling run serves every choice the selection makes,
    except stopping at a driver ({!fused} then runs once more). *)
let tracked ?(func = "main") (p : Ast.program) : Minic_interp.Eval.track =
  let top_level, children = nesting (candidates ~func p) in
  let rec reach (m : Artisan.Query.match_ctx) =
    if (Dependence.analyze_loop m.stmt).parallel_with_reductions then [ m ]
    else
      match children m.stmt.sid with
      | [] -> [ m ]
      | cs -> List.concat_map reach cs
  in
  List.filter_map (track_entry p) (List.concat_map reach top_level)

(** The fused profile of [p] that tracks loop [loop_sid] (default: every
    loop of {!tracked}): the shared run when the loop is in that set,
    else one more run tracking that loop alone.  The only entry point
    that fills {!Minic_interp.Profile_cache}; a consultation is a trace
    span carrying its [hit] outcome. *)
let fused ?loop_sid (p : Ast.program) : Minic_interp.Fused_profile.t =
  let tracked = lazy (tracked p) in
  let loop, track =
    match loop_sid with
    | Some sid when not (List.mem_assoc sid (Lazy.force tracked)) ->
        ( Some sid,
          lazy
            (Artisan.Query.stmts p ~where:(fun c -> c.stmt.sid = sid)
            |> List.filter_map (track_entry p)) )
    | _ -> (None, tracked)
  in
  (* the one producer of profile-cache entries: the tracked set is a
     function of the program, so a hit computes nothing *)
  let run () =
    Minic_interp.Eval.(run_vm ~track:(Lazy.force track) (compile p))
  in
  let cache = Minic_interp.Profile_cache.cache in
  Minic_interp.Fused_profile.of_run p
    (if not (Flow_memo.Cache.active cache) then run ()
     else
       Flow_obs.Trace.with_span ~cat:"interp" "profile_cache.run" @@ fun () ->
       Flow_memo.Cache.find_or_compute cache
         ~key:(Ast.digest ?loop p)
         ~on:(fun hit ->
           Flow_obs.Trace.add_args [ ("hit", Flow_obs.Attr.Bool hit) ])
         run)

(** Project the hotspot loop out of a fused profile of the program.
    Returns [None] when [func] contains no loop. *)
let of_fused ?(func = "main") (fp : Minic_interp.Fused_profile.t) : t option =
  let p = fp.Minic_interp.Fused_profile.source in
  let cands = candidates ~func p in
  if cands = [] then None
  else
    let total_cycles = Minic_interp.Fused_profile.total_cycles fp in
    let cycles_of sid = Minic_interp.Fused_profile.loop_cycles fp sid in
    let top_level, children = nesting cands in
    let pick ms =
      List.fold_left
        (fun best (m : Artisan.Query.match_ctx) ->
          let c = cycles_of m.stmt.sid in
          match best with
          | Some (_, bc) when bc >= c -> best
          | _ -> Some (m, c))
        None ms
    in
    match pick top_level with
    | None -> None
    | Some (start, _) ->
        let rec descend (m : Artisan.Query.match_ctx) skipped =
          let info = Dependence.analyze_loop m.stmt in
          if info.parallel_with_reductions then (m, skipped)
          else
            match pick (children m.stmt.sid) with
            | Some (child, child_cycles)
              when child_cycles
                   >= descend_threshold *. cycles_of m.stmt.sid ->
                descend child (m.stmt.sid :: skipped)
            | _ -> (m, skipped)
        in
        let chosen, skipped = descend start [] in
        let cycles = cycles_of chosen.stmt.sid in
        Some
          {
            loop_sid = chosen.stmt.sid;
            func_name = chosen.func.fname;
            cycles;
            total_cycles;
            share = (if total_cycles > 0.0 then cycles /. total_cycles else 0.0);
            descended_from = List.rev skipped;
          }

(** Detect the hotspot loop of [p]: one shared fused profiling run, then
    a pure projection.  Returns [None] when [func] contains no loop. *)
let detect ?(func = "main") (p : Ast.program) : t option =
  Flow_obs.Trace.with_span ~cat:"analysis" "analysis.hotspot"
    ~args:[ ("function", Flow_obs.Attr.String func) ]
  @@ fun () ->
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "analysis_hotspot";
  let result = of_fused ~func (fused p) in
  (match result with
  | Some h ->
      Flow_obs.Trace.add_args
        [
          ("loop_sid", Flow_obs.Attr.Int h.loop_sid);
          ("share", Flow_obs.Attr.Float h.share);
        ]
  | None -> ());
  result
