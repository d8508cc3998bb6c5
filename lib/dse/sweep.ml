(** The paper's device-specific Optimisation tasks as one skeleton.

    "Unroll Until Overmap" (Fig. 2), the GPU blocksize DSE and the OMP
    num-threads DSE (Fig. 4) are the same meta-program: walk a knob
    ladder, read the device model's report for each candidate, and keep
    a winner.  {!explore} evaluates the whole ladder, in order, each
    candidate inside {!Sweep_memo.candidate}; the sweep's [pick] reads
    the winner and the reported trajectory off the evaluated steps; and
    {!run} applies the chosen knob to the incoming design.  The analytic
    models take microseconds, so every sweep is exhaustive.

    Outcomes are memoized per sweep key ({!Sweep_memo}); {!choose} is
    the memoized decision alone, for callers that must not edit source
    (the PSA strategy's probes). *)

(** One evaluated candidate: the knob value and the device model's own
    report for it. *)
type 'r step = { knob : int; model : 'r }

(** What a sweep decides, and all its memo caches: the chosen knob, the
    trajectory and the provenance record — never the design. *)
type 'r outcome = {
  chosen : int;
  steps : 'r step list;
  decision : Flow_obs.Provenance.decision;
}

type 'r result = {
  design : Codegen.Design.t;  (** the incoming design, knob applied *)
  chosen : int;
  steps : 'r step list;  (** the trajectory, in exploration order *)
  decision : Flow_obs.Provenance.decision;  (** the sweep's provenance *)
}

type 'r t = {
  name : string;  (** span, memo key and decision name *)
  knob : string;  (** the candidate's span argument *)
  cache : 'r outcome Flow_memo.Cache.t;
  ladder : Codegen.Design.t -> int list;
  eval : Codegen.Design.t -> Analysis.Features.t -> int -> 'r;
      (** one candidate's device report; runs inside its span *)
  pick :
    Codegen.Design.t ->
    'r step list ->
    int * 'r step list * string * (string * Flow_obs.Attr.value) list;
      (** the chosen knob, the reported trajectory, and the decision's
          label and evidence *)
  apply : Codegen.Design.t -> 'r outcome -> Codegen.Design.t;
}

let explore s (design : Codegen.Design.t) features ladder : 'r outcome =
  let candidate = Sweep_memo.candidate ~sweep:s.name ~knob:s.knob in
  let eval = s.eval design features in
  let evaluated =
    List.map (fun n -> { knob = n; model = candidate n (fun () -> eval n) })
      ladder
  in
  let chosen, steps, label, evidence = s.pick design evaluated in
  {
    chosen;
    steps;
    decision =
      Sweep_memo.decision ~design ~sweep:s.name
        ~candidates:(List.length ladder) ~chosen:label ~evidence;
  }

(** The sweep's outcome for [design] (memoized per sweep key); edits no
    source. *)
let choose s (design : Codegen.Design.t) features : 'r outcome =
  let candidates = s.ladder design in
  Sweep_memo.run s.cache ~sweep:s.name ~design features ~candidates
    (fun () -> explore s design features candidates)

(** Run the sweep for [design] on its device: {!choose}, then apply the
    chosen knob to [design] itself, for hits and misses alike. *)
let run s design features : 'r result =
  let o = choose s design features in
  { design = s.apply design o; chosen = o.chosen; steps = o.steps;
    decision = o.decision }

(* First-best: the earliest of the fastest steps [ok] admits. *)
let first_best ~ok ~seconds steps =
  List.fold_left
    (fun acc s ->
      match acc with
      | _ when not (ok s.model) -> acc
      | Some b when seconds b.model <= seconds s.model -> acc
      | _ -> Some s)
    None steps

let rejected cond =
  if cond then Flow_obs.Metrics.incr Flow_obs.Metrics.global "dse_rejected"

let seconds x = ("seconds", Flow_obs.Attr.Float x)

(* ---------------- FPGA: unroll until overmap ---------------- *)

let max_factor = 1 lsl 16

(* The doubling ladder 1, 2, 4, ... up to one past [max_factor]. *)
let factors =
  let rec go n acc =
    if n > max_factor then List.rev (n :: acc) else go (n * 2) (n :: acc)
  in
  go 1 []

(** Doubles the kernel's outer-loop unroll factor, reading the FPGA
    resource model (standing in for the HLS design report) after each
    step, until the device overmaps (> 90 %).  The last fitting factor
    is kept.  A design that overmaps at factor 1 still ships unrolled
    once if it physically fits (<= 100 %); otherwise it is
    unsynthesizable, the paper's Rush Larsen outcome.  Either way,
    synthesizable means factor 1 fits. *)
let unroll : Devices.Fpga_model.resources t =
  let synthesizable steps = (List.hd steps).model.Devices.Fpga_model.fits in
  {
    name = "unroll";
    knob = "factor";
    cache = Sweep_memo.create ~name:"dse_unroll" ();
    ladder = (fun _ -> factors);
    eval =
      (fun design features ->
        let fpga = Devices.Spec.find_fpga design.device_id in
        fun n ->
          let r = Devices.Fpga_model.resources fpga design features ~unroll:n in
          rejected r.overmapped;
          Flow_obs.Trace.add_args
            [
              ("utilization", Flow_obs.Attr.Float r.utilization);
              ("overmapped", Flow_obs.Attr.Bool r.overmapped);
            ];
          r);
    pick =
      (fun _ evaluated ->
        (* The model is pure, so evaluating past the stopping point is
           unobservable: [chosen] and the steps are those of the
           incremental doubling-until-overmap walk. *)
        let rec walk best steps = function
          | [] -> (best, List.rev steps)
          | s :: rest ->
              let steps = s :: steps in
              if s.model.Devices.Fpga_model.overmapped || s.knob > max_factor
              then (best, List.rev steps)
              else walk s.knob steps rest
        in
        let chosen, steps = walk 1 [] evaluated in
        let ok = synthesizable steps in
        ( chosen,
          steps,
          (if ok then Printf.sprintf "unroll factor %d" chosen
           else "unsynthesizable"),
          [ ("synthesizable", Flow_obs.Attr.Bool ok) ] ));
    apply =
      (fun design o ->
        let d = Codegen.Oneapi_gen.set_unroll_factor design o.chosen in
        { d with Codegen.Design.synthesizable = synthesizable o.steps });
  }

(* ---------------- GPU: blocksize ---------------- *)

let candidate_blocksizes = [ 32; 64; 96; 128; 192; 256; 384; 512; 768; 1024 ]

(** Sweeps the launch blocksize over the device's valid range and keeps
    the fastest feasible one; register files, SM counts and occupancy
    curves differ, so devices may choose differently.  With no feasible
    blocksize the design's own is kept. *)
let blocksize : Devices.Gpu_model.breakdown t =
  {
    name = "blocksize";
    knob = "blocksize";
    cache = Sweep_memo.create ~name:"dse_blocksize" ();
    ladder =
      (fun design ->
        let gpu = Devices.Spec.find_gpu design.device_id in
        List.filter (fun bs -> bs <= gpu.max_blocksize) candidate_blocksizes);
    eval =
      (fun design features ->
        let gpu = Devices.Spec.find_gpu design.device_id in
        fun bs ->
          let r =
            Devices.Gpu_model.time gpu
              { design with Codegen.Design.blocksize = bs }
              features
          in
          rejected (not r.feasible);
          Flow_obs.Trace.add_args
            [ seconds r.total; ("feasible", Flow_obs.Attr.Bool r.feasible) ];
          r);
    pick =
      (fun design steps ->
        let bs, evidence =
          match
            first_best steps
              ~ok:(fun (r : Devices.Gpu_model.breakdown) -> r.feasible)
              ~seconds:(fun r -> r.total)
          with
          | Some b ->
              ( b.knob,
                [
                  seconds b.model.total;
                  ("occupancy", Flow_obs.Attr.Float b.model.occupancy);
                ] )
          | None -> (design.blocksize, [])
        in
        (bs, steps, Printf.sprintf "blocksize %d" bs, evidence));
    apply = (fun design o -> Codegen.Hip_gen.set_blocksize design o.chosen);
  }

(* ---------------- CPU: OpenMP thread count ---------------- *)

(** Sweeps the thread count over 1, 2, 4, ... capped at the core count
    and keeps the fastest: the maximum for the paper's embarrassingly
    parallel benchmarks, giving the 28-30x Fig. 5 CPU bars. *)
let threads : Devices.Cpu_model.t t =
  {
    name = "threads";
    knob = "threads";
    cache = Sweep_memo.create ~name:"dse_threads" ();
    ladder =
      (fun design ->
        let cpu = Devices.Spec.find_cpu design.device_id in
        let rec doubling n =
          if n >= cpu.cores then [ cpu.cores ] else n :: doubling (n * 2)
        in
        doubling 1);
    eval =
      (fun design features ->
        let cpu = Devices.Spec.find_cpu design.device_id in
        fun t ->
          let r = Devices.Cpu_model.time cpu features ~threads:t in
          Flow_obs.Trace.add_args [ seconds r.t_parallel ];
          r);
    pick =
      (fun _ steps ->
        (* the ladder is never empty *)
        let b =
          Option.get
            (first_best steps
               ~ok:(fun _ -> true)
               ~seconds:(fun (r : Devices.Cpu_model.t) -> r.t_parallel))
        in
        ( b.knob,
          steps,
          Printf.sprintf "%d threads" b.knob,
          [ seconds b.model.t_parallel ] ));
    apply = (fun design o -> Codegen.Openmp_gen.set_num_threads design o.chosen);
  }
