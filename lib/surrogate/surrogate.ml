(** What remains of the learned DSE cost model.

    DSE sweeps are exhaustive: the analytic device models take
    microseconds, so a surrogate that ranks candidates to skip model
    calls costs more than it saves (DESIGN.md §17).  Only {!reset} is
    left, as a no-op, for harnesses that still call it. *)

(** Does nothing; there is no trained state to drop. *)
let reset () = ()
