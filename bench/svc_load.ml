(** [bench svc-load]: stand up a live daemon in-process, replay a
    deterministic {!Flow_load.Workload} mix against it through real
    sockets, and record throughput and latency percentiles into the
    [service] section of [BENCH_psaflow.json].

    The replay sends >= 20k mixed submissions (hot duplicates, cold
    misses, MiniC-error poison, queue-full storms) through [connections]
    concurrent clients, with full-array p50/p90/p99 and a byte-identity
    check of sampled results against direct {!Flow_exec} execution —
    the harness {e fails} (exit 1) if any sampled daemon result differs
    from the direct bytes.

    Variant traffic (one source resubmitted under other parameters) is
    not replayed here: perfbench's [variant_sweep] workload measures the
    stage memo's end-to-end win, and [test_memo]'s "variant schedule:
    exact per-stage counts" pins its per-stage hits and misses. *)

module Json = Flow_service.Json
module Protocol = Flow_service.Protocol
module Server = Flow_service.Server
module Client = Flow_service.Client

let json_out = "BENCH_psaflow.json"

(* ------------------------------------------------------------------ *)
(* Daemon replay                                                       *)
(* ------------------------------------------------------------------ *)

let with_daemon (config : Server.config) f =
  let path = Filename.temp_file "psaflow-load" ".sock" in
  Sys.remove path;
  let addr = Protocol.Unix_path path in
  let server = Thread.create (fun () -> Server.serve ~config addr) () in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Client.connect addr with
    | c -> Client.close c
    | exception Client.Client_error _ ->
        if Unix.gettimeofday () > deadline then
          failwith "svc-load: daemon did not come up";
        Thread.delay 0.01;
        wait ()
  in
  wait ();
  Fun.protect
    ~finally:(fun () ->
      (try ignore (Client.rpc addr Protocol.Shutdown) with _ -> ());
      Thread.join server)
    (fun () -> f addr)

let run ~quick () =
  let cores = Domain.recommended_domain_count () in
  (* 95% singletons + 5% storms of [storm_size] gives ~3.3 submissions
     per op: 6200 ops is a >= 20k-request replay *)
  let total_ops = if quick then 600 else 6_200 in
  let storm_size = 48 in
  let queue_capacity = 32 in
  let config =
    {
      (Server.default_config ()) with
      Server.queue_capacity;
      store_capacity = 512;
    }
  in
  Printf.printf
    "== psaflow svc-load (%s, %d cores recommended, %d workers) ==\n%!"
    (if quick then "quick" else "full")
    cores config.Server.workers;
  let outcome =
    with_daemon config (fun addr ->
        Flow_load.Runner.run
          {
            Flow_load.Runner.addr;
            connections = (if quick then 4 else 8);
            total_ops;
            seed = 42;
            storm_size;
            sample_every = 25;
          })
  in
  let o = outcome in
  Printf.printf
    "replayed %d ops (%d submissions) in %.2f s: %.0f req/s\n\
     latency ms: p50 %.2f  p90 %.2f  p99 %.2f  max %.2f\n\
     dispositions: %d fresh, %d coalesced, %d cached\n\
     rejections: %d poison, %d queue_full, %d other\n\
     identity: %d sampled results vs direct Std_flow -> %s\n\
     %!"
    o.Flow_load.Runner.ops o.requests o.wall_s o.throughput_rps o.p50_ms
    o.p90_ms o.p99_ms o.max_ms o.fresh o.coalesced o.cached o.poison_rejected
    o.queue_full o.other_errors o.identity_checked
    (if o.identity_ok then "byte-identical" else "MISMATCH");
  let service =
    Json.Obj
      [
        ("quick", Json.Bool quick);
        ("cores", Json.Int cores);
        ("workers", Json.Int config.Server.workers);
        ("connections", Json.Int (if quick then 4 else 8));
        ("queue_capacity", Json.Int queue_capacity);
        ("storm_size", Json.Int storm_size);
        ("seed", Json.Int 42);
        ("ops", Json.Int o.ops);
        ("requests", Json.Int o.requests);
        ("wall_s", Json.Float o.wall_s);
        ("throughput_rps", Json.Float o.throughput_rps);
        ("p50_ms", Json.Float o.p50_ms);
        ("p90_ms", Json.Float o.p90_ms);
        ("p99_ms", Json.Float o.p99_ms);
        ("max_ms", Json.Float o.max_ms);
        ("fresh", Json.Int o.fresh);
        ("coalesced", Json.Int o.coalesced);
        ("cached", Json.Int o.cached);
        ("poison_rejected", Json.Int o.poison_rejected);
        ("queue_full", Json.Int o.queue_full);
        ("other_errors", Json.Int o.other_errors);
        ("identity_checked", Json.Int o.identity_checked);
        ("outputs_identical", Json.Bool o.identity_ok);
      ]
  in
  Report_file.update ~path:json_out [ ("service", service) ];
  Printf.printf "wrote %s\n%!" json_out;
  if not o.identity_ok then exit 1;
  if o.other_errors > 0 then begin
    prerr_endline "ERROR: svc-load saw unexpected errors";
    exit 1
  end
