(** "Unroll Until Overmap" DSE — the meta-program of the paper's Fig. 2.

    Iteratively doubles the kernel's outer-loop unroll factor, asking the
    FPGA resource model (standing in for the HLS high-level design
    report) for estimated utilisation after each step, until the device
    overmaps (> 90 %).  The last fitting design is kept; if even unroll 1
    overmaps, the design is unsynthesizable for this device — exactly the
    paper's Rush Larsen outcome.  The analytic resource model takes
    microseconds, so the whole candidate ladder is evaluated, in order,
    and the doubling walk is read off the results. *)

type step = {
  factor : int;
  utilization : float;
  alm_util : float;
  dsp_util : float;
  overmapped : bool;
}

type result = {
  design : Codegen.Design.t;  (** annotated with the chosen factor *)
  chosen_factor : int;
  synthesizable : bool;
  steps : step list;  (** DSE trajectory, in exploration order *)
  decision : Flow_obs.Provenance.decision;  (** the sweep's provenance *)
}

let max_factor = 1 lsl 16

(* The doubling candidate ladder 1, 2, 4, ... up to one past
   [max_factor] — static, but part of the sweep-memo key. *)
let factors =
  let rec go n acc =
    if n > max_factor then List.rev (n :: acc) else go (n * 2) (n :: acc)
  in
  go 1 []

let run_uncached (design : Codegen.Design.t) (features : Analysis.Features.t) :
    result =
  let fpga = Devices.Spec.find_fpga design.device_id in
  let eval n =
    Flow_obs.Trace.with_span ~cat:"dse" "dse.unroll_candidate"
      ~args:[ ("factor", Flow_obs.Attr.Int n) ]
    @@ fun () ->
    let m = Flow_obs.Metrics.global in
    Flow_obs.Metrics.incr m "dse_candidates";
    Flow_obs.Metrics.incr m "dse_simulate_calls";
    let r = Devices.Fpga_model.resources fpga design features ~unroll:n in
    if r.overmapped then Flow_obs.Metrics.incr m "dse_rejected";
    Flow_obs.Trace.add_args
      [
        ("utilization", Flow_obs.Attr.Float r.utilization);
        ("overmapped", Flow_obs.Attr.Bool r.overmapped);
      ];
    {
      factor = n;
      utilization = r.utilization;
      alm_util = r.alm_util;
      dsp_util = r.dsp_util;
      overmapped = r.overmapped;
    }
  in
  (* The model is pure, so evaluating the ladder past the stopping point
     is unobservable: [chosen_factor] and [steps] are those of the
     incremental doubling-until-overmap exploration. *)
  let evaluated = List.map eval factors in
  let rec walk best steps = function
    | [] -> (best, steps)
    | s :: rest ->
        let steps = s :: steps in
        if s.overmapped || s.factor > max_factor then (best, steps)
        else walk (Some s.factor) steps rest
  in
  let best, steps = walk None [] evaluated in
  let steps = List.rev steps in
  let chosen, synthesizable =
    match best with
    | Some factor -> (factor, true)
    | None ->
        (* the single-pipeline design already exceeds the 90% DSE
           headroom: it is still synthesizable if it physically fits the
           device (<= 100%), just with no unroll; beyond that it is not
           (the paper's Rush Larsen FPGA outcome).  Factor 1 heads the
           ladder, so its utilisation is already known. *)
        (1, (List.hd evaluated).utilization <= 1.0)
  in
  let d = Codegen.Oneapi_gen.set_unroll_factor design chosen in
  {
    design = { d with Codegen.Design.synthesizable };
    chosen_factor = chosen;
    synthesizable;
    steps;
    decision =
      Sweep_memo.decision ~design ~sweep:"unroll"
        ~candidates:(List.length factors)
        ~chosen:
          (if synthesizable then Printf.sprintf "unroll factor %d" chosen
           else "unsynthesizable")
        ~evidence:[ ("synthesizable", Flow_obs.Attr.Bool synthesizable) ];
  }

(* Sweep memo: the knob choice, trajectory and provenance are cached;
   the design is always rebuilt from the *incoming* design with the
   same setter the sweep applies.  Designs reach this DSE with
   [synthesizable = true] (nothing earlier in the flow clears it), so
   re-asserting the cached flag reproduces both exit branches of
   [run_uncached] exactly. *)
type cached = {
  c_factor : int;
  c_synth : bool;
  c_steps : step list;
  c_decision : Flow_obs.Provenance.decision;
}

let cache : cached Flow_memo.Cache.t = Sweep_memo.create ~name:"dse_unroll" ()

(** Run the DSE for [design] on its FPGA device (memoized per sweep
    key — see {!Sweep_memo}). *)
let run (design : Codegen.Design.t) (features : Analysis.Features.t) : result =
  let fresh = ref None in
  let e =
    Flow_memo.Cache.find_or_compute cache
      ~key:
        (Sweep_memo.key ~sweep:"unroll" ~design features
           ~candidates:(String.concat "," (List.map string_of_int factors)))
      (fun () ->
        let r = run_uncached design features in
        fresh := Some r;
        {
          c_factor = r.chosen_factor;
          c_synth = r.synthesizable;
          c_steps = r.steps;
          c_decision = r.decision;
        })
  in
  match !fresh with
  | Some r -> r
  | None ->
      let d = Codegen.Oneapi_gen.set_unroll_factor design e.c_factor in
      {
        design = { d with Codegen.Design.synthesizable = e.c_synth };
        chosen_factor = e.c_factor;
        synthesizable = e.c_synth;
        steps = e.c_steps;
        decision = e.c_decision;
      }
