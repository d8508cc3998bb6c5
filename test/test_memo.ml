(** Tests for the cross-request stage-memo hierarchy (lib/memo and its
    wiring): byte-identity of memoized vs unmemoized flows over
    generated MiniC programs, exact per-stage hit and miss counts on a
    fixed variant schedule, single-flight dedup under concurrent
    domains, LRU capacity/eviction accounting, and traced runs using
    the memo. *)

module Protocol = Flow_service.Protocol
module Flow_exec = Flow_service.Flow_exec
module Json = Flow_service.Json
module Cache = Flow_memo.Cache

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Property: memo-on == memo-off, byte for byte                        *)
(* ------------------------------------------------------------------ *)

(* Small extractable kernels (array-writing for-loop in [main], the
   shape {!Analysis.Hotspot} extracts), varied in size, constants and
   body shape so each qcheck case exercises distinct stage keys. *)
let gen_source =
  QCheck.Gen.(
    let body c1 c2 = function
      | 0 -> Printf.sprintf "b[i] = a[i] * %d.0 + %d.0;" c2 c1
      | 1 -> Printf.sprintf "b[i] = (a[i] + %d.0) * %d.0;" c1 c2
      | _ -> Printf.sprintf "b[i] = a[i] * a[i] + %d.0 * %d.0;" c1 c2
    in
    map
      (fun ((n, shape), (c1, c2)) ->
        Printf.sprintf
          "int main() {\n\
          \  double a[%d];\n\
          \  double b[%d];\n\
          \  for (int i = 0; i < %d; i++) { %s }\n\
          \  return 0;\n\
           }"
          n n n
          (body c1 c2 shape))
      (pair (pair (int_range 8 48) (int_range 0 2)) (pair (int_range 0 99) (int_range 1 9))))

let arb_source = QCheck.make ~print:(fun s -> s) gen_source

(* The parameter variants replayed against each generated source: the
   default plus two that change strategy/mode/x-threshold (distinct
   store keys, shared stage keys). *)
let variant_subs src =
  [
    Protocol.submission (Protocol.Inline src);
    Protocol.submission ~strategy:Protocol.Model_perf (Protocol.Inline src);
    Protocol.submission ~mode:Protocol.Uninformed ~x_threshold:1.0
      (Protocol.Inline src);
  ]

let exec sub =
  match Flow_exec.resolve sub with
  | Error _ -> None
  | Ok { Flow_exec.run; _ } ->
      let r = run ~request_id:None () in
      Some (r.Protocol.report, Json.to_string r.Protocol.data)

let prop_memo_identity =
  QCheck.Test.make ~count:8 ~name:"memo-on == memo-off byte-identically"
    arb_source (fun src ->
      Fun.protect ~finally:(fun () -> Flow_memo.set_globally_enabled true)
      @@ fun () ->
      List.for_all
        (fun sub ->
          (* reference: the unmemoized engine *)
          Flow_memo.set_globally_enabled false;
          let reference = exec sub in
          Flow_memo.set_globally_enabled true;
          (* first memoized submission populates the stage caches,
             repeats serve from them; all three must match the
             reference bytes exactly *)
          let cold = exec sub in
          let warm = exec sub in
          match (reference, cold, warm) with
          | Some r, Some c, Some w -> c = r && w = r
          | _ -> false)
        (variant_subs src))

(* ------------------------------------------------------------------ *)
(* Property: a result does not depend on what the process parsed before *)
(* ------------------------------------------------------------------ *)

(* With the stage memo off every execution parses afresh, so parsing
   unrelated programs in between must leave the report, the data JSON
   (its "hotspot: loop #N" log line included) and a traced run's
   normalized trace byte-identical.  The profile cache is cleared
   before each round so both rounds see the same hit/miss pattern in
   the trace. *)
let prop_history_independent =
  QCheck.Test.make ~count:6 ~name:"results independent of earlier parses"
    QCheck.(pair arb_source (list_of_size Gen.(int_range 1 4) arb_source))
    (fun (src, unrelated) ->
      Fun.protect ~finally:(fun () -> Flow_memo.set_globally_enabled true)
      @@ fun () ->
      Flow_memo.set_globally_enabled false;
      let subs =
        [
          Protocol.submission (Protocol.Inline src);
          Protocol.submission ~trace:true (Protocol.Inline src);
        ]
      in
      let round () =
        Minic_interp.Profile_cache.clear ();
        List.map exec subs
      in
      let alone = round () in
      List.iter (fun s -> ignore (Minic.Parser.parse_program s)) unrelated;
      let after = round () in
      List.for_all Option.is_some alone && after = alone)

(* ------------------------------------------------------------------ *)
(* Tracing runs the memoized program                                   *)
(* ------------------------------------------------------------------ *)

(* A traced resubmission consults the warm stage memo like any other
   run: tracing records what ran, memo hits included. *)
let test_traced_run_hits_memo () =
  let src =
    "int main() {\n\
    \  double a[24];\n\
    \  double b[24];\n\
    \  for (int i = 0; i < 24; i++) { b[i] = a[i] * 3.0 + 41.0; }\n\
    \  return 0;\n\
     }"
  in
  check "untraced run warms the memo" true
    (Option.is_some (exec (Protocol.submission (Protocol.Inline src))));
  let hits name = Flow_obs.Metrics.counter_value Flow_obs.Metrics.global name in
  let extract0 = hits "memo_extract_hits" and features0 = hits "memo_features_hits" in
  check "traced run succeeds" true
    (Option.is_some (exec (Protocol.submission ~trace:true (Protocol.Inline src))));
  check "traced run hit the extract memo" true (hits "memo_extract_hits" > extract0);
  check "traced run hit the features memo" true
    (hits "memo_features_hits" > features0)

(* ------------------------------------------------------------------ *)
(* A fixed variant schedule: exact per-stage counts                    *)
(* ------------------------------------------------------------------ *)

(* Every counter the stage memo moves, read from the global registry. *)
let schedule_counters =
  List.concat_map
    (fun p -> [ p ^ "_hits"; p ^ "_misses" ])
    [
      "memo_ast";
      "memo_extract";
      "memo_reduce";
      "memo_features";
      "memo_dse_unroll";
      "memo_dse_blocksize";
      "memo_dse_threads";
      "profile_cache";
    ]
  @ [ "interp_runs"; "dse_simulate_calls" ]

(* Run [subs] sequentially; returns each result's bytes and every
   counter's delta. *)
let counted_phase subs =
  let read () =
    List.map
      (Flow_obs.Metrics.counter_value Flow_obs.Metrics.global)
      schedule_counters
  in
  let before = read () in
  let results = List.map Helpers.exec_bytes subs in
  (results, List.combine schedule_counters (List.map2 ( - ) (read ()) before))

(* Phase A runs three cold flows; phase B's 36 variants of them hit
   every stage above the store and simulate only the candidates whose
   sweep keys depend on the varied parameters.  The model strategies'
   probes run the sweeps too: 18 threads lookups, one of them a miss.
   Misses come first: a stage key that picks up a varied parameter
   fails there, naming the stage. *)
let phase_a_counts =
  [
    ("memo_ast_misses", 3); ("memo_ast_hits", 3);
    ("memo_extract_misses", 3); ("memo_extract_hits", 0);
    ("memo_reduce_misses", 3); ("memo_reduce_hits", 0);
    ("memo_features_misses", 3); ("memo_features_hits", 0);
    ("memo_dse_unroll_misses", 0); ("memo_dse_unroll_hits", 0);
    ("memo_dse_blocksize_misses", 0); ("memo_dse_blocksize_hits", 0);
    ("memo_dse_threads_misses", 1); ("memo_dse_threads_hits", 2);
    ("profile_cache_misses", 3); ("profile_cache_hits", 3);
    ("interp_runs", 3); ("dse_simulate_calls", 6);
  ]

let phase_b_counts =
  [
    ("memo_ast_misses", 0); ("memo_ast_hits", 72);
    ("memo_extract_misses", 0); ("memo_extract_hits", 36);
    ("memo_reduce_misses", 0); ("memo_reduce_hits", 36);
    ("memo_features_misses", 0); ("memo_features_hits", 36);
    ("memo_dse_unroll_misses", 4); ("memo_dse_unroll_hits", 50);
    ("memo_dse_blocksize_misses", 4); ("memo_dse_blocksize_hits", 50);
    ("memo_dse_threads_misses", 1); ("memo_dse_threads_hits", 53);
    ("profile_cache_misses", 0); ("profile_cache_hits", 36);
    ("interp_runs", 0); ("dse_simulate_calls", 118);
  ]

let check_counts phase expected actual =
  List.iter
    (fun (name, want) ->
      check_int (Printf.sprintf "phase %s %s" phase name) want
        (List.assoc name actual))
    expected

let test_variant_schedule_counts () =
  Psa.Stage_memo.clear ();
  Flow_memo.Cache.clear Analysis.Features.memo;
  Dse.Sweep_memo.clear ();
  Minic_interp.Profile_cache.clear ();
  let _, phase_a = counted_phase Helpers.variant_colds in
  check_counts "A" phase_a_counts phase_a;
  let results, phase_b = counted_phase Helpers.variant_batch in
  check_counts "B" phase_b_counts phase_b;
  (* every submission is its own store entry, so none of the 39 is a
     duplicate the daemon would answer from its store *)
  let keys =
    List.map
      (fun sub ->
        match Flow_exec.resolve sub with
        | Ok r -> r.Flow_exec.key
        | Error e -> Alcotest.fail (Protocol.error_message e))
      (Helpers.variant_colds @ Helpers.variant_batch)
  in
  check_int "39 distinct store keys" 39
    (List.length (List.sort_uniq compare keys));
  List.iteri
    (fun i (sub, memoized) ->
      check (Printf.sprintf "variant %d = memo-off bytes" i) true
        (memoized = Helpers.memo_off_bytes sub))
    (List.combine Helpers.variant_batch results)

(* ------------------------------------------------------------------ *)
(* Single-flight dedup under concurrent domains                        *)
(* ------------------------------------------------------------------ *)

let test_single_flight () =
  let c : int Cache.t = Cache.create ~name:"sf_test" ~shards:1 ~cap:8 () in
  let computes = Atomic.make 0 in
  let started = Atomic.make 0 in
  let doms =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () ->
            (* all four domains request the key together, so three of
               them find it in flight *)
            Atomic.incr started;
            while Atomic.get started < 4 do
              Domain.cpu_relax ()
            done;
            Cache.find_or_compute c ~key:"k" (fun () ->
                Atomic.incr computes;
                Unix.sleepf 0.05;
                42)))
  in
  let vs = Array.map Domain.join doms in
  Array.iter (fun v -> check_int "value" 42 v) vs;
  check_int "computed exactly once" 1 (Atomic.get computes);
  let s = Cache.stats c in
  check_int "one miss" 1 s.Cache.misses;
  check_int "three hits" 3 s.Cache.hits;
  check "waiters recorded" true (s.Cache.single_flight >= 1)

let test_single_flight_exception () =
  let c : int Cache.t = Cache.create ~name:"sf_exc_test" ~shards:1 () in
  (* a failing compute caches nothing and unblocks retries *)
  (match Cache.find_or_compute c ~key:"k" (fun () -> failwith "boom") with
  | exception Failure m -> check "exception propagates" true (m = "boom")
  | _ -> Alcotest.fail "expected the compute exception");
  check "nothing cached after failure" false (Cache.mem c "k");
  check_int "retry computes fresh" 7
    (Cache.find_or_compute c ~key:"k" (fun () -> 7))

(* ------------------------------------------------------------------ *)
(* LRU capacity and eviction accounting                                *)
(* ------------------------------------------------------------------ *)

let test_lru_eviction () =
  let c : string Cache.t = Cache.create ~name:"lru_test" ~shards:1 ~cap:2 () in
  let v k = Cache.find_or_compute c ~key:k (fun () -> k) in
  ignore (v "a");
  ignore (v "b");
  ignore (v "a");
  (* "a" was touched after "b": inserting "c" must evict "b" (true
     LRU), not "a" (FIFO would evict the older insert) *)
  ignore (v "c");
  check "a survives (recently used)" true (Cache.mem c "a");
  check "c resident" true (Cache.mem c "c");
  check "b evicted (least recently used)" false (Cache.mem c "b");
  check_int "length at capacity" 2 (Cache.length c);
  let s = Cache.stats c in
  check_int "one eviction" 1 s.Cache.evictions;
  check_int "one hit (the touch)" 1 s.Cache.hits;
  check_int "three misses" 3 s.Cache.misses

(* Plain [find]/[add] share the LRU clock and the counters with
   [find_or_compute]. *)
let test_find_add_lru () =
  let c : string Cache.t = Cache.create ~name:"find_add_test" ~shards:1 ~cap:2 () in
  Cache.add c "a" "a1";
  ignore (Cache.find_or_compute c ~key:"b" (fun () -> "b1"));
  (* a find re-stamps "a", so "b" is now least recently used *)
  check "find hits an added key" true (Cache.find c "a" = Some "a1");
  Cache.add c "c" "c1";
  check "b evicted" false (Cache.mem c "b");
  check "a kept" true (Cache.mem c "a");
  (* an added entry is a find_or_compute hit *)
  check "added value served" true
    (Cache.find_or_compute c ~key:"c" (fun () -> Alcotest.fail "recomputed")
    = "c1");
  check "find misses an evicted key" true (Cache.find c "b" = None);
  let s = Cache.stats c in
  check_int "hits: find + find_or_compute" 2 s.Cache.hits;
  check_int "misses: compute b + find b" 2 s.Cache.misses;
  check_int "one eviction" 1 s.Cache.evictions

let test_add_replaces () =
  let c : int Cache.t = Cache.create ~name:"replace_test" ~shards:1 ~cap:2 () in
  Cache.add c "k" 1;
  Cache.add c "j" 2;
  Cache.add c "k" 3;
  check_int "no growth on replace" 2 (Cache.length c);
  check "replaced value" true (Cache.find c "k" = Some 3);
  check_int "replace evicts nothing" 0 (Cache.stats c).Cache.evictions;
  (* the replace re-stamped "k": the next insert evicts "j" *)
  Cache.add c "l" 4;
  check "j evicted" false (Cache.mem c "j");
  check "k kept" true (Cache.mem c "k");
  (* with the memo switched off, a cache misses and stores nothing *)
  Fun.protect ~finally:(fun () -> Flow_memo.set_globally_enabled true)
    (fun () ->
      Flow_memo.set_globally_enabled false;
      Cache.add c "m" 5;
      check "disabled find misses" true (Cache.find c "k" = None));
  check "disabled add stored nothing" false (Cache.mem c "m")

(* Every hit pushes an LRU stamp; hit-only traffic must not grow the
   stamp queue without bound. *)
let test_hits_bounded () =
  let c : int Cache.t = Cache.create ~name:"hits_bounded_test" ~shards:1 () in
  Cache.add c "k" 1;
  for _ = 1 to 50_000 do
    ignore (Cache.find c "k");
    ignore (Cache.find_or_compute c ~key:"k" (fun () -> 2))
  done;
  let words = Obj.reachable_words (Obj.repr c) in
  check (Printf.sprintf "100k hits keep the cache small (%d words)" words) true
    (words < 5_000)

let test_global_switch () =
  let c : int Cache.t = Cache.create ~name:"switch_test" ~shards:1 () in
  Fun.protect ~finally:(fun () -> Flow_memo.set_globally_enabled true)
  @@ fun () ->
  Flow_memo.set_globally_enabled false;
  let computes = ref 0 in
  let v () =
    Cache.find_or_compute c ~key:"k" (fun () ->
        incr computes;
        !computes)
  in
  ignore (v ());
  ignore (v ());
  check_int "disabled memo computes every time" 2 !computes;
  check "disabled memo caches nothing" false (Cache.mem c "k");
  Flow_memo.set_globally_enabled true;
  ignore (v ());
  ignore (v ());
  check_int "re-enabled memo computes once more" 3 !computes

let () =
  Alcotest.run "memo"
    [
      ( "identity",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_memo_identity;
          QCheck_alcotest.to_alcotest ~long:false prop_history_independent;
        ] );
      ( "counts",
        [
          Alcotest.test_case "variant schedule: exact per-stage counts" `Quick
            test_variant_schedule_counts;
        ] );
      ( "tracing",
        [
          Alcotest.test_case "traced run hits the warm memo" `Quick
            test_traced_run_hits_memo;
        ] );
      ( "single-flight",
        [
          Alcotest.test_case "4 domains, one compute" `Quick test_single_flight;
          Alcotest.test_case "exception unblocks waiters" `Quick
            test_single_flight_exception;
        ] );
      ( "lru",
        [
          Alcotest.test_case "tick-on-hit eviction order" `Quick
            test_lru_eviction;
          Alcotest.test_case "global kill-switch" `Quick test_global_switch;
          Alcotest.test_case "find/add share the LRU order" `Quick
            test_find_add_lru;
          Alcotest.test_case "add replaces without growth" `Quick
            test_add_replaces;
          Alcotest.test_case "hit-only traffic stays bounded" `Quick
            test_hits_bounded;
        ] );
    ]
