(** Deltas of the counters the program already keeps in its process-wide
    metrics registry ([Flow_obs.Metrics.global]): stage memo, profile
    cache, interpreter, DSE and surrogate.  Read from outside, before
    and after a stretch of work. *)

module M = Flow_obs.Metrics

(** The stage memos, by their [Flow_memo] cache name. *)
let stages =
  [ "ast"; "extract"; "reduce"; "features"; "compile"; "dse_unroll"; "dse_blocksize"; "dse_threads" ]

let counter_names =
  List.concat_map
    (fun s -> List.map (fun k -> "memo_" ^ s ^ "_" ^ k) [ "hits"; "misses"; "evictions"; "single_flight" ])
    stages
  @ [
      "profile_cache_hits";
      "profile_cache_misses";
      "profile_cache_evictions";
      "profile_cache_single_flight";
      "interp_runs";
      "dse_candidates";
      "dse_simulate_calls";
      "surrogate_predictions";
      "surrogate_fallbacks";
    ]

type t = (string * float) list

let cycles = "interp_virtual_cycles"

let snapshot () : t =
  List.map (fun n -> (n, float_of_int (M.counter_value M.global n))) counter_names
  @ [
      ( cycles,
        match M.histogram_summary M.global cycles with
        | Some s -> s.M.s_sum
        | None -> 0.0 );
    ]

let diff (a : t) (b : t) : t = List.map2 (fun (n, x) (_, y) -> (n, y -. x)) a b
let get (t : t) n = List.assoc n t

let sum t names = List.fold_left (fun acc n -> acc +. get t n) 0.0 names

let memo_hits t = sum t (List.map (fun s -> "memo_" ^ s ^ "_hits") stages)
let memo_misses t = sum t (List.map (fun s -> "memo_" ^ s ^ "_misses") stages)

(** Counters whose totals depend only on which requests ran, not on how
    concurrent executions interleaved: the traced replay must reproduce
    the daemon's values exactly. *)
let order_free =
  List.concat_map (fun s -> [ "memo_" ^ s ^ "_hits"; "memo_" ^ s ^ "_misses" ]) stages
  @ [ "profile_cache_hits"; "profile_cache_misses"; "interp_runs"; cycles; "surrogate_predictions" ]

(** Counters that can also depend on interleaving (which sweep trains
    the surrogate first); equal whenever requests run one at a time. *)
let order_sensitive = [ "surrogate_fallbacks"; "dse_simulate_calls"; "dse_candidates" ]
