(** Deterministic request-mix generator for the [bench svc-load] harness.

    A schedule is a seeded, reproducible sequence of operations drawn
    from four populations, sized to exercise every disposition and
    rejection path of the daemon:

    - {e hot}: submissions drawn from a small pool of distinct inline
      kernels, so the first occurrence executes fresh and every repeat
      is a store hit ([`Cached]) or an in-flight dedup ([`Coalesced]);
    - {e cold}: a never-repeating inline kernel per request (a unique
      constant folded into the loop body) — always a fresh execution;
    - {e poison}: MiniC sources that fail to parse or typecheck, which
      the daemon must reject with a typed error at submit time without
      executing anything;
    - {e storm}: a whole batch of unique kernels in one [submit_batch]
      frame, sized past the daemon's queue capacity so the tail of the
      batch reports [Queue_full] backpressure.

    The generator is pure: same [seed] and [total], same schedule, so a
    load run is replayable and its sampled results can be compared
    byte-for-byte against direct {!Flow_exec} execution. *)

module Protocol = Flow_service.Protocol

type kind = Hot | Cold | Poison | Storm

type op = {
  index : int;
  kind : kind;
  subs : Protocol.submission list;
      (** singleton for hot/cold/poison; the whole burst for a storm *)
}

(* Same LCG discipline (and constants) as the engine's [rand01]:
   explicit state, no global RNG, so schedules never depend on
   generation order. *)
let lcg state =
  let s = ((1103515245 * state) + 12345) land 0x3FFFFFFF in
  (s, s lsr 7)

(** An extractable MiniC kernel distinguished by [tag]: the hotspot loop
    sits in [main] (where {!Analysis.Hotspot} looks) and writes an array
    (scalar-accumulating hotspots are not extractable); the folded
    constant makes each source — and so each store digest — unique. *)
let kernel_source tag =
  Printf.sprintf
    {|int main() {
  double a[64];
  double b[64];
  for (int i = 0; i < 64; i++) { b[i] = a[i] * 1.5 + %d.0; }
  return 0;
}|}
    tag

let hot_pool_size = 8

let hot_submission slot =
  Protocol.submission (Protocol.Inline (kernel_source slot))

(* Cold tags start far above the hot pool so the two populations can
   never alias. *)
let cold_submission uniq =
  Protocol.submission (Protocol.Inline (kernel_source (1_000_000 + uniq)))

let poison_submission variant =
  let src =
    match variant mod 3 with
    | 0 -> "int main( {"                         (* parse error *)
    | 1 -> "int main() { x = 1; return 0; }"     (* unbound variable *)
    | _ -> "int main() { return g(); }"          (* unbound function *)
  in
  Protocol.submission (Protocol.Inline src)

(** Generate a schedule of [total] single requests plus interspersed
    storms.  [storm_size] should exceed the daemon's queue capacity for
    the storm legs to observe [Queue_full]. *)
let schedule ~seed ~total ~storm_size : op array =
  if total <= 0 then invalid_arg "Workload.schedule: total must be positive";
  let state = ref (if seed = 0 then 0x5eed else seed) in
  let roll bound =
    let s, r = lcg !state in
    state := s;
    r mod bound
  in
  let cold_uniq = ref 0 in
  let next_cold () =
    incr cold_uniq;
    cold_submission !cold_uniq
  in
  Array.init total (fun index ->
      let r = roll 100 in
      if r < 60 then { index; kind = Hot; subs = [ hot_submission (roll hot_pool_size) ] }
      else if r < 85 then { index; kind = Cold; subs = [ next_cold () ] }
      else if r < 95 then { index; kind = Poison; subs = [ poison_submission (roll 3) ] }
      else
        {
          index;
          kind = Storm;
          subs = List.init storm_size (fun _ -> next_cold ());
        })

(** A parameter grid for resubmitting one source as design variants
    (mode, strategy, x-threshold, budget).  Every entry differs from
    the default (informed, fig3, x=2.0, no budget) and from each other,
    so each variant is a distinct store key that shares the source's
    stage-memo keys.  The budget is far above any simulated cost: the
    budget {e field} varies the key without triggering the over-budget
    revision path, keeping variant flows deterministic. *)
let variant_params : (Protocol.mode * Protocol.strategy * float * float option) list =
  [
    (Protocol.Informed, Protocol.Fig3, 1.0, None);
    (Protocol.Informed, Protocol.Fig3, 4.0, None);
    (Protocol.Uninformed, Protocol.Fig3, 2.0, None);
    (Protocol.Informed, Protocol.Model_perf, 2.0, None);
    (Protocol.Informed, Protocol.Model_cost, 2.0, None);
    (Protocol.Informed, Protocol.Model_energy, 2.0, None);
    (Protocol.Informed, Protocol.Fig3, 2.0, Some 1.0e6);
    (Protocol.Uninformed, Protocol.Fig3, 4.0, None);
    (Protocol.Informed, Protocol.Model_perf, 4.0, None);
    (Protocol.Informed, Protocol.Model_cost, 1.0, Some 1.0e6);
    (Protocol.Informed, Protocol.Model_energy, 4.0, None);
    (Protocol.Uninformed, Protocol.Fig3, 1.0, None);
  ]

(** Total submissions in a schedule (storms count each burst member):
    the request volume the daemon actually sees. *)
let submission_count (ops : op array) =
  Array.fold_left (fun acc op -> acc + List.length op.subs) 0 ops
