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

let sweep = "unroll"
let candidate = Sweep_memo.candidate ~sweep ~knob:"factor"

(* The sweep proper; chooses (factor, synthesizable). *)
let explore (design : Codegen.Design.t) (features : Analysis.Features.t) :
    (int * bool, step) Sweep_memo.outcome =
  let fpga = Devices.Spec.find_fpga design.device_id in
  let eval n =
    candidate n @@ fun () ->
    let r = Devices.Fpga_model.resources fpga design features ~unroll:n in
    if r.overmapped then
      Flow_obs.Metrics.incr Flow_obs.Metrics.global "dse_rejected";
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
     is unobservable: [chosen] and [steps] are those of the incremental
     doubling-until-overmap exploration. *)
  let evaluated = List.map eval factors in
  let rec walk best steps = function
    | [] -> (best, steps)
    | s :: rest ->
        let steps = s :: steps in
        if s.overmapped || s.factor > max_factor then (best, steps)
        else walk (Some s.factor) steps rest
  in
  let best, steps = walk None [] evaluated in
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
  {
    chosen = (chosen, synthesizable);
    steps = List.rev steps;
    decision =
      Sweep_memo.decision ~design ~sweep
        ~candidates:(List.length factors)
        ~chosen:
          (if synthesizable then Printf.sprintf "unroll factor %d" chosen
           else "unsynthesizable")
        ~evidence:[ ("synthesizable", Flow_obs.Attr.Bool synthesizable) ];
  }

let cache = Sweep_memo.create ~name:"dse_unroll" ()

(** Run the DSE for [design] on its FPGA device (memoized per sweep
    key — see {!Sweep_memo}). *)
let run (design : Codegen.Design.t) (features : Analysis.Features.t) : result =
  let o =
    Sweep_memo.run cache ~sweep ~design features ~candidates:factors
      (fun () -> explore design features)
  in
  let factor, synthesizable = o.chosen in
  let d = Codegen.Oneapi_gen.set_unroll_factor design factor in
  {
    design = { d with Codegen.Design.synthesizable };
    chosen_factor = factor;
    synthesizable;
    steps = o.steps;
    decision = o.decision;
  }
