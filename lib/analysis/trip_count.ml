(** Dynamic loop trip-count analysis.

    Executes the program and reports, for every loop, how many times it
    was entered and its min/mean/max iterations per entry.  The PSA
    strategy uses this to decide whether an inner loop is "fully
    unrollable" on an FPGA (fixed trip count under a threshold), and the
    device models use outer trip counts as the available parallelism. *)

open Minic

type stat = {
  loop_sid : int;
  invocations : int;
  total_iterations : int;
  min_trip : int;
  max_trip : int;
  mean_trip : float;
  fixed : bool;  (** every invocation ran the same number of iterations *)
}

type t = (int, stat) Hashtbl.t

let of_profile (prof : Minic_interp.Profile.t) : t =
  let out = Hashtbl.create 32 in
  Hashtbl.iter
    (fun sid (s : Minic_interp.Profile.loop_stat) ->
      let min_trip = if s.invocations = 0 then 0 else s.min_trip in
      Hashtbl.replace out sid
        {
          loop_sid = sid;
          invocations = s.invocations;
          total_iterations = s.iterations;
          min_trip;
          max_trip = s.max_trip;
          mean_trip = Minic_interp.Profile.mean_trip s;
          fixed = s.invocations > 0 && min_trip = s.max_trip;
        })
    prof.loops;
  out

(** Project the trip counts out of a fused profile. *)
let of_fused (fp : Minic_interp.Fused_profile.t) : t =
  of_profile (Minic_interp.Fused_profile.profile fp)

(** Run the program (one shared fused profiling run) and collect trip
    counts of every loop. *)
let analyze (p : Ast.program) : t =
  Flow_obs.Trace.with_span ~cat:"analysis" "analysis.trip_count" @@ fun () ->
  Flow_obs.Metrics.incr Flow_obs.Metrics.global "analysis_trip_count";
  of_fused (Hotspot.fused p)

let find (t : t) sid = Hashtbl.find_opt t sid

(** Mean trip count of the loop with id [sid], 0 if it never ran. *)
let mean (t : t) sid =
  match find t sid with Some s -> s.mean_trip | None -> 0.0
