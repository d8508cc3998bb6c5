(** Submission fixtures shared by perfbench and the tests.

    This module exists only because [perfbench/gen.ml] and
    [test/helpers.ml] use [kernel_source], [poison_submission] and
    [variant_params]; nothing in [lib/], [bin/] or [bench/] uses it. *)

module Protocol = Flow_service.Protocol

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

(** MiniC sources the daemon must reject at submit time with a typed
    error, without executing anything. *)
let poison_submission variant =
  let src =
    match variant mod 3 with
    | 0 -> "int main( {"                         (* parse error *)
    | 1 -> "int main() { x = 1; return 0; }"     (* unbound variable *)
    | _ -> "int main() { return g(); }"          (* unbound function *)
  in
  Protocol.submission (Protocol.Inline src)

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
