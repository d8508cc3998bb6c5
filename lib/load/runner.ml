(** Replay a {!Workload} schedule against a live daemon and measure it.

    [run] drives the schedule from [connections] client threads, each
    holding one persistent connection (systhreads: the client side is
    I/O-bound; the daemon's worker {e domains} do the computing).  Every
    operation's latency is recorded in full — submit to final result for
    hot/cold jobs, submit to typed rejection for poison, frame
    round-trip plus drain for storms — into a per-thread
    {!Flow_obs.Metrics.Hist} log-bucketed sketch; the sketches are
    merged at the end, so percentiles are constant-memory regardless of
    run length and come from the same histogram type the daemon serves
    in [svc-metrics].  Every submission carries a client-minted request
    id (protocol v3), so load traffic is traceable via [svc-trace].

    Correctness is checked on a deterministic sample: every
    [sample_every]-th successful result is compared byte-for-byte
    (report text and serialized result JSON) against a direct
    {!Flow_exec} execution of the same submission in this process.  A
    daemon that returns approximately-right results fails the run. *)

module Protocol = Flow_service.Protocol
module Client = Flow_service.Client
module Flow_exec = Flow_service.Flow_exec
module Json = Flow_service.Json
module Hist = Flow_obs.Metrics.Hist

type config = {
  addr : Protocol.addr;
  connections : int;
  total_ops : int;
  seed : int;
  storm_size : int;
  sample_every : int;
}

type outcome = {
  wall_s : float;
  ops : int;  (** schedule entries replayed *)
  requests : int;  (** submissions the daemon saw (storms expanded) *)
  throughput_rps : float;  (** requests / wall_s *)
  p50_ms : float;
  p90_ms : float;
  p99_ms : float;
  max_ms : float;
  fresh : int;
  coalesced : int;
  cached : int;
  poison_rejected : int;
  queue_full : int;
  other_errors : int;
  identity_checked : int;
  identity_ok : bool;
}

type counters = {
  mutable fresh : int;
  mutable coalesced : int;
  mutable cached : int;
  mutable poison_rejected : int;
  mutable queue_full : int;
  mutable other_errors : int;
}

(* One thread's view of the run; merged under [lock] at the end. *)
type shared = {
  ops_arr : Workload.op array;
  next : int Atomic.t;
  lock : Mutex.t;
  lat_hist : Hist.t;  (** seconds; thread-local sketches merge in here *)
  totals : counters;
  samples : (string, Protocol.submission * Protocol.job_result) Hashtbl.t;
      (** keyed by source text: first sampled result per distinct job *)
  sample_every : int;
}

let source_text (s : Protocol.submission) =
  match s.Protocol.source with
  | Protocol.Inline src -> src
  | Protocol.Bench id -> "bench:" ^ id

let record_sample sh op_index (sub : Protocol.submission)
    (r : Protocol.job_result) =
  if sh.sample_every > 0 && op_index mod sh.sample_every = 0 then begin
    let k = source_text sub in
    Mutex.lock sh.lock;
    if not (Hashtbl.mem sh.samples k) then Hashtbl.add sh.samples k (sub, r);
    Mutex.unlock sh.lock
  end

(* Poll one job on the persistent connection until Done/Failed. *)
let rec await_result c job_id =
  match Client.request c (Protocol.Fetch_result job_id) with
  | Protocol.Result (_, r) -> Some r
  | Protocol.Status { state = Protocol.Failed _; _ } -> None
  | Protocol.Status _ ->
      Thread.delay 0.002;
      await_result c job_id
  | _ -> None

let run_single sh c (t : counters) (op : Workload.op) sub =
  match snd (Client.submit c sub) with
  | Ok (job_id, disposition) -> (
      (match disposition with
      | `Fresh -> t.fresh <- t.fresh + 1
      | `Coalesced -> t.coalesced <- t.coalesced + 1
      | `Cached -> t.cached <- t.cached + 1);
      match await_result c job_id with
      | Some r -> record_sample sh op.Workload.index sub r
      | None -> t.other_errors <- t.other_errors + 1)
  | Error (Protocol.Minic_parse_error _ | Protocol.Minic_type_error _) ->
      t.poison_rejected <- t.poison_rejected + 1
  | Error Protocol.Queue_full -> t.queue_full <- t.queue_full + 1
  | Error _ -> t.other_errors <- t.other_errors + 1

(* A storm: one submit_batch frame, then drain our accepted jobs with
   fetch_batch polls so the burst's execution cost stays inside the
   measured wall clock. *)
let run_storm sh c (t : counters) (op : Workload.op) =
  let items = Client.submit_batch c op.Workload.subs in
  let ids =
    List.filter_map
      (fun item ->
        match item with
        | Ok (job_id, disposition) ->
            (match disposition with
            | `Fresh -> t.fresh <- t.fresh + 1
            | `Coalesced -> t.coalesced <- t.coalesced + 1
            | `Cached -> t.cached <- t.cached + 1);
            Some job_id
        | Error Protocol.Queue_full ->
            t.queue_full <- t.queue_full + 1;
            None
        | Error (Protocol.Minic_parse_error _ | Protocol.Minic_type_error _) ->
            t.poison_rejected <- t.poison_rejected + 1;
            None
        | Error _ ->
            t.other_errors <- t.other_errors + 1;
            None)
      items
  in
  let rec drain ids =
    match ids with
    | [] -> ()
    | _ ->
        let pending =
          List.filter_map
            (fun (id, item) ->
              match item with
              | Ok ({ Protocol.state = Protocol.Done; _ }, Some _)
              | Ok ({ Protocol.state = Protocol.Failed _; _ }, _) ->
                  None
              | Ok _ -> Some id
              | Error _ -> None)
            (List.combine ids (Client.fetch_batch c ids))
        in
        if pending <> [] then begin
          Thread.delay 0.005;
          drain pending
        end
  in
  drain ids

let worker sh addr () =
  let c = Client.connect addr in
  let t =
    {
      fresh = 0;
      coalesced = 0;
      cached = 0;
      poison_rejected = 0;
      queue_full = 0;
      other_errors = 0;
    }
  in
  let mine = Hist.create () in
  let n = Array.length sh.ops_arr in
  let rec loop () =
    let i = Atomic.fetch_and_add sh.next 1 in
    if i < n then begin
      let op = sh.ops_arr.(i) in
      let t0 = Unix.gettimeofday () in
      (try
         match op.Workload.kind with
         | Workload.Storm -> run_storm sh c t op
         | _ -> List.iter (run_single sh c t op) op.Workload.subs
       with
      | Client.Protocol_failure _ | Client.Client_error _ ->
          t.other_errors <- t.other_errors + 1);
      Hist.observe mine (Unix.gettimeofday () -. t0);
      loop ()
    end
  in
  loop ();
  Client.close c;
  Mutex.lock sh.lock;
  Hist.merge ~into:sh.lat_hist mine;
  sh.totals.fresh <- sh.totals.fresh + t.fresh;
  sh.totals.coalesced <- sh.totals.coalesced + t.coalesced;
  sh.totals.cached <- sh.totals.cached + t.cached;
  sh.totals.poison_rejected <- sh.totals.poison_rejected + t.poison_rejected;
  sh.totals.queue_full <- sh.totals.queue_full + t.queue_full;
  sh.totals.other_errors <- sh.totals.other_errors + t.other_errors;
  Mutex.unlock sh.lock

(* Kept only for perfbench's replay, which still calls it: rewrites
   every "loop #N" token to "loop #_". *)
let canonicalize_sids s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let marker = "loop #" in
  let m = String.length marker in
  let i = ref 0 in
  while !i < n do
    if !i + m <= n && String.sub s !i m = marker then begin
      Buffer.add_string buf marker;
      i := !i + m;
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done;
      Buffer.add_char buf '_'
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* First index at which two strings differ, with context, for the
   hard-fail diagnostic. *)
let diff_at a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  let i = go 0 in
  let ctx s =
    let lo = max 0 (i - 30) in
    String.sub s lo (min 60 (String.length s - lo))
  in
  Printf.sprintf "byte %d: daemon %S vs direct %S" i (ctx b) (ctx a)

(* Compare one fetched daemon result against a direct re-execution of
   the same submission in this process.  [key] only labels the
   diagnostic. *)
let verify_one key (sub : Protocol.submission)
    (fetched : Protocol.job_result) : bool =
  match Flow_exec.resolve sub with
  | Error _ -> false
  | Ok { run; _ } ->
      let direct = run ~request_id:None () in
      let report_ok =
        String.equal direct.Protocol.report fetched.Protocol.report
      in
      let direct_data = Json.to_string direct.Protocol.data in
      let fetched_data = Json.to_string fetched.Protocol.data in
      let data_ok = String.equal direct_data fetched_data in
      if not report_ok then
        Printf.eprintf "svc-load identity: report mismatch for %s\n  %s\n%!"
          (String.sub key 0 (min 40 (String.length key)))
          (diff_at direct.Protocol.report fetched.Protocol.report);
      if not data_ok then
        Printf.eprintf "svc-load identity: data mismatch for %s\n  %s\n%!"
          (String.sub key 0 (min 40 (String.length key)))
          (diff_at direct_data fetched_data);
      report_ok && data_ok

(** Re-execute each sampled submission directly (no daemon) and compare
    bytes.  Returns [(checked, all_ok)]; mismatches are detailed on
    stderr. *)
let verify_samples samples =
  Hashtbl.fold
    (fun key (sub, fetched) (n, ok) ->
      (n + 1, ok && verify_one key sub fetched))
    samples (0, true)

let run (cfg : config) : outcome =
  let ops_arr =
    Workload.schedule ~seed:cfg.seed ~total:cfg.total_ops
      ~storm_size:cfg.storm_size
  in
  let sh =
    {
      ops_arr;
      next = Atomic.make 0;
      lock = Mutex.create ();
      lat_hist = Hist.create ();
      totals =
        {
          fresh = 0;
          coalesced = 0;
          cached = 0;
          poison_rejected = 0;
          queue_full = 0;
          other_errors = 0;
        };
      samples = Hashtbl.create 64;
      sample_every = cfg.sample_every;
    }
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init (max 1 cfg.connections) (fun _ ->
        Thread.create (worker sh cfg.addr) ())
  in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let lat = sh.lat_hist in
  let requests = Workload.submission_count ops_arr in
  let identity_checked, identity_ok = verify_samples sh.samples in
  let summary = Hist.summary lat in
  {
    wall_s;
    ops = Array.length ops_arr;
    requests;
    throughput_rps = float_of_int requests /. wall_s;
    p50_ms = 1000.0 *. Hist.percentile lat 50.0;
    p90_ms = 1000.0 *. Hist.percentile lat 90.0;
    p99_ms = 1000.0 *. Hist.percentile lat 99.0;
    max_ms = 1000.0 *. summary.Flow_obs.Metrics.s_max;
    fresh = sh.totals.fresh;
    coalesced = sh.totals.coalesced;
    cached = sh.totals.cached;
    poison_rejected = sh.totals.poison_rejected;
    queue_full = sh.totals.queue_full;
    other_errors = sh.totals.other_errors;
    identity_checked;
    identity_ok;
  }

