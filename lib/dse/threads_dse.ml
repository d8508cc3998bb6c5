(** "OMP Num Threads DSE".

    Sweeps the OpenMP thread count from 1 to the core count and keeps the
    fastest.  For the paper's embarrassingly parallel benchmarks this
    selects the maximum available threads (32 on the EPYC 7543), yielding
    the 28-30x Fig. 5 CPU bars.  The analytic CPU model takes
    microseconds, so every candidate is evaluated, in order. *)

type step = { threads : int; seconds : float; speedup : float }

type result = {
  design : Codegen.Design.t;  (** with the chosen thread count *)
  chosen_threads : int;
  steps : step list;
  decision : Flow_obs.Provenance.decision;  (** the sweep's provenance *)
}

(* Doubling ladder 1, 2, 4, ... capped at the device's core count. *)
let candidate_threads (cpu : Devices.Spec.cpu) =
  let rec doubling n acc =
    if n >= cpu.cores then List.rev (cpu.cores :: acc)
    else doubling (n * 2) (n :: acc)
  in
  doubling 1 []

let sweep = "threads"
let candidate = Sweep_memo.candidate ~sweep ~knob:"threads"

(* The sweep proper; chooses the thread count. *)
let explore (design : Codegen.Design.t) (features : Analysis.Features.t) cpu
    candidates : (int, step) Sweep_memo.outcome =
  let eval t =
    candidate t @@ fun () ->
    let r = Devices.Cpu_model.time cpu features ~threads:t in
    Flow_obs.Trace.add_args [ ("seconds", Flow_obs.Attr.Float r.t_parallel) ];
    { threads = t; seconds = r.t_parallel; speedup = r.speedup }
  in
  let steps = List.map eval candidates in
  (* first-best: a later candidate wins only when strictly faster *)
  let best =
    List.fold_left
      (fun acc s ->
        match acc with
        | Some b when b.seconds <= s.seconds -> Some b
        | _ -> Some s)
      None steps
  in
  let chosen = match best with Some s -> s.threads | None -> cpu.cores in
  {
    chosen;
    steps;
    decision =
      Sweep_memo.decision ~design ~sweep
        ~candidates:(List.length candidates)
        ~chosen:(Printf.sprintf "%d threads" chosen)
        ~evidence:
          (match best with
          | Some b -> [ ("seconds", Flow_obs.Attr.Float b.seconds) ]
          | None -> []);
  }

let cache = Sweep_memo.create ~name:"dse_threads" ()

(** Run the DSE for [design] on its CPU device (memoized per sweep
    key — see {!Sweep_memo}). *)
let run (design : Codegen.Design.t) (features : Analysis.Features.t) : result =
  let cpu = Devices.Spec.find_cpu design.device_id in
  let candidates = candidate_threads cpu in
  let o =
    Sweep_memo.run cache ~sweep ~design features ~candidates (fun () ->
        explore design features cpu candidates)
  in
  {
    design = Codegen.Openmp_gen.set_num_threads design o.chosen;
    chosen_threads = o.chosen;
    steps = o.steps;
    decision = o.decision;
  }
