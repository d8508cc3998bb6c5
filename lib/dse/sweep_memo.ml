(** Memoized DSE sweep outcomes, and the provenance every sweep records.

    A sweep's result is a pure function of the device spec, the
    candidate set and the analytic model inputs ({!model_inputs}), so
    (sweep name, device id, design name, model inputs, candidate set)
    fully determines the chosen knob value, the step trajectory and the
    decision provenance.  Budget or strategy variants of a request
    therefore replay sweeps without re-simulating.  The key ({!key})
    digests the model inputs' raw float bits: a hit formats no
    number.

    Only the {!outcome} — knob choice, steps and decision — is cached,
    never the design itself.  Each sweep's [run] is one {!run} call
    plus one rebuild that applies the chosen knob to the *incoming*
    design, for hits and misses alike, so the returned design is built
    from the caller's artifacts, not a previous request's.

    The caches follow the hierarchy rules ([PSAFLOW_NO_MEMO],
    [PSAFLOW_MEMO_CAP], [PSAFLOW_MEMO_SHARDS], metrics under
    [memo_dse_*]).  A hit skips the analytic model calls of the
    sweep, so [dse_simulate_calls] advances only on misses — harnesses
    that *measure* sweep cost (the perf bench's DSE section, the
    simulate-call tests) disable the sweep memo via {!set_enabled} so
    their counter arithmetic keeps measuring the model, not the cache. *)

(** What a sweep decides: the chosen knob, the exploration trajectory
    and the provenance record. *)
type ('knob, 'step) outcome = {
  chosen : 'knob;
  steps : 'step list;
  decision : Flow_obs.Provenance.decision;
}

type ('knob, 'step) cache = ('knob, 'step) outcome Flow_memo.Cache.t

let switches : (bool -> unit) list ref = ref []
let clearers : (unit -> unit) list ref = ref []

(** Create one sweep cache and register it for {!set_enabled}/{!clear}. *)
let create ~name () : (_, _) cache =
  let c = Flow_memo.Cache.create ~name () in
  switches := Flow_memo.Cache.set_enabled c :: !switches;
  clearers := (fun () -> Flow_memo.Cache.clear c) :: !clearers;
  c

(** Enable or disable every sweep cache (bench and test harnesses that
    measure simulate-call counts turn them off). *)
let set_enabled b = List.iter (fun f -> f b) !switches

(** Drop all sweep entries. *)
let clear () = List.iter (fun f -> f ()) !clearers

(* Every input an analytic device model reads: the swept knobs, the
   design's optimisation flags and the kernel facts the CPU, GPU and
   FPGA models price.  Statement ids and names are left out — they
   depend on how the program was parsed and feed no model. *)
let model_inputs (d : Codegen.Design.t) (f : Analysis.Features.t) =
  let fi = float_of_int and b v = if v then 1.0 else 0.0 in
  let ops (o : Analysis.Opcount.t) =
    [ o.fadd; o.fmul; o.fdiv; o.sqrt; o.exp_log; o.trig; o.power; o.int_ops;
      o.loads; o.stores; o.cheap_math ]
  in
  let loops = f.inner_loops in
  let count p = fi (List.length (List.filter p loops)) in
  let fold g = List.fold_left g 0.0 loops in
  let gathered =
    List.fold_left
      (fun acc (a : Analysis.Features.arg_feat) ->
        if List.mem a.af_name f.gathered_args then acc + a.af_footprint
        else acc)
      0 f.args
  in
  [ fi d.unroll_factor; fi d.blocksize; fi d.num_threads;
    b d.single_precision; b d.pinned_memory; b d.shared_mem;
    b d.gpu_intrinsics; b d.zero_copy; b d.reductions_removed;
    fi f.calls; f.outer_trip; f.cpu_cycles_per_call; f.flops_per_call;
    f.sfu_per_call; f.bytes_accessed_per_call; f.bytes_in_per_call;
    f.bytes_out_per_call; fi f.inner_read_bytes; fi f.regs_estimate;
    fi f.locals_count; f.gather_fraction; fi gathered; b f.outer_parallel;
    b f.outer_has_reductions; b f.no_alias;
    f.intensity.Analysis.Intensity.flops_per_byte ]
  @ ops f.ops_per_iter @ ops f.hw_ops_per_iter
  @ [ fi (List.length loops);
      count (fun (l : Analysis.Features.inner_loop) -> l.il_innermost);
      count (fun l -> l.il_parallel);
      count (fun l -> l.il_has_reduction);
      count (fun l -> l.il_fully_unrollable);
      fold (fun s l -> s +. l.il_iters_per_outer);
      fold (fun m l -> Float.max m l.il_mean_trip);
      fi (List.length f.args) ]

(** The [branch D.<design>] provenance record of one exhaustive sweep:
    which knob was swept on which device, over how many candidates, what
    won, and the sweep's own [evidence]. *)
let decision ~(design : Codegen.Design.t) ~sweep ~candidates ~chosen ~evidence
    : Flow_obs.Provenance.decision =
  {
    Flow_obs.Provenance.branch = "D." ^ design.name;
    strategy = "exhaustive";
    selected = [ chosen ];
    reason = None;
    evidence =
      [
        ("sweep", Flow_obs.Attr.String sweep);
        ("device", Flow_obs.Attr.String design.device_id);
        ("candidates", Flow_obs.Attr.Int candidates);
      ]
      @ evidence;
  }

(** The memo key of a sweep: (sweep, device, design name, digest of
    the model [inputs]' raw float bits and of the [candidates] ladder).
    Raw bits tell every two distinct floats apart, [0.0] from [-0.0]
    included, and format nothing.  The ladder is device-derived, but
    keying it keeps an entry safe against spec changes at runtime. *)
let key ~sweep ~(design : Codegen.Design.t) inputs ~candidates =
  let buf = Buffer.create 512 in
  let int n = Buffer.add_int64_le buf (Int64.of_int n) in
  int (List.length inputs);
  List.iter (fun x -> Buffer.add_int64_le buf (Int64.bits_of_float x)) inputs;
  List.iter int candidates;
  Printf.sprintf "%s:%s:%s:%s" sweep design.device_id design.name
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

(** [run cache ~sweep ~design features ~candidates sweep_fn] is
    [sweep_fn ()], memoized under {!key} of the {!model_inputs}. *)
let run (cache : ('k, 's) cache) ~sweep ~(design : Codegen.Design.t)
    features ~candidates (sweep_fn : unit -> ('k, 's) outcome) :
    ('k, 's) outcome =
  Flow_memo.Cache.find_or_compute cache
    ~key:(key ~sweep ~design (model_inputs design features) ~candidates)
    sweep_fn

(** [candidate ~sweep ~knob] evaluates one candidate [n] with [f]
    inside a [dse.<sweep>_candidate] span carrying [(knob, n)], and
    counts it in [dse_candidates] and [dse_simulate_calls]. *)
let candidate ~sweep ~knob =
  let span = "dse." ^ sweep ^ "_candidate" in
  fun n f ->
    Flow_obs.Trace.with_span ~cat:"dse" span
      ~args:[ (knob, Flow_obs.Attr.Int n) ]
    @@ fun () ->
    let m = Flow_obs.Metrics.global in
    Flow_obs.Metrics.incr m "dse_candidates";
    Flow_obs.Metrics.incr m "dse_simulate_calls";
    f ()
