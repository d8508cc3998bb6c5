(** GPU blocksize DSE ("GTX 1080 Blocksize DSE" / "RTX 2080 Blocksize
    DSE").

    Sweeps the launch blocksize over the architecturally valid range and
    keeps the value minimising modelled execution time — the paper's goal
    of minimising latency and maximising occupancy per device.  The same
    kernel typically lands on different blocksizes per device because the
    register file, SM count and occupancy curves differ.  The analytic
    GPU model takes microseconds, so every candidate is evaluated, in
    order. *)

type step = {
  blocksize : int;
  occupancy : float;
  seconds : float;
  feasible : bool;
}

type result = {
  design : Codegen.Design.t;  (** with the chosen blocksize *)
  chosen_blocksize : int;
  steps : step list;
  decision : Flow_obs.Provenance.decision;  (** the sweep's provenance *)
}

let candidate_blocksizes = [ 32; 64; 96; 128; 192; 256; 384; 512; 768; 1024 ]

let candidates (gpu : Devices.Spec.gpu) =
  List.filter (fun bs -> bs <= gpu.max_blocksize) candidate_blocksizes

let sweep = "blocksize"
let candidate = Sweep_memo.candidate ~sweep ~knob:"blocksize"

(* The sweep proper; chooses the blocksize. *)
let explore (design : Codegen.Design.t) (features : Analysis.Features.t) gpu
    candidates : (int, step) Sweep_memo.outcome =
  let eval bs =
    candidate bs @@ fun () ->
    let d = { design with Codegen.Design.blocksize = bs } in
    let r = Devices.Gpu_model.time gpu d features in
    if not r.feasible then
      Flow_obs.Metrics.incr Flow_obs.Metrics.global "dse_rejected";
    Flow_obs.Trace.add_args
      [
        ("seconds", Flow_obs.Attr.Float r.total);
        ("feasible", Flow_obs.Attr.Bool r.feasible);
      ];
    {
      blocksize = bs;
      occupancy = r.occupancy;
      seconds = r.total;
      feasible = r.feasible;
    }
  in
  let steps = List.map eval candidates in
  (* first-best feasible: a later candidate wins only when strictly
     faster *)
  let best =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some b when b.seconds <= s.seconds || not s.feasible -> Some b
        | _ -> if s.feasible then Some s else acc)
      None steps
  in
  let chosen =
    match best with Some s -> s.blocksize | None -> design.blocksize
  in
  {
    chosen;
    steps;
    decision =
      Sweep_memo.decision ~design ~sweep
        ~candidates:(List.length candidates)
        ~chosen:(Printf.sprintf "blocksize %d" chosen)
        ~evidence:
          (match best with
          | Some b ->
              [
                ("seconds", Flow_obs.Attr.Float b.seconds);
                ("occupancy", Flow_obs.Attr.Float b.occupancy);
              ]
          | None -> []);
  }

let cache = Sweep_memo.create ~name:"dse_blocksize" ()

(** Run the DSE for [design] on its GPU device (memoized per sweep
    key — see {!Sweep_memo}). *)
let run (design : Codegen.Design.t) (features : Analysis.Features.t) : result =
  let gpu = Devices.Spec.find_gpu design.device_id in
  let candidates = candidates gpu in
  let o =
    Sweep_memo.run cache ~sweep ~design features ~candidates (fun () ->
        explore design features gpu candidates)
  in
  {
    design = Codegen.Hip_gen.set_blocksize design o.chosen;
    chosen_blocksize = o.chosen;
    steps = o.steps;
    decision = o.decision;
  }
