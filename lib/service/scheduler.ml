(** Job scheduler: a bounded FIFO queue drained by N worker domains.

    Jobs move through queued -> running -> done/failed; every transition
    is timestamped so status responses report wall-clock.  Submissions
    are deduplicated through the content-addressed {!Store}:

    - an identical job already queued or running is {e coalesced} (the
      caller gets the in-flight job's id — one execution, many waiters);
    - an identical finished result still in the store is a {e cached}
      submission (a fresh job id materialises instantly in the [Done]
      state, no execution);
    - otherwise the job is {e fresh} and enqueued, unless the queue is at
      capacity, which is reported as backpressure for the caller to turn
      into a [Queue_full] protocol error.

    [shutdown] drains gracefully: no new submissions are accepted, the
    queue is run to empty, workers are joined.

    Finished jobs (done, failed, and cached submissions, which finish
    when submitted) stay fetchable until {!max_finished} newer ones have
    finished; then the oldest is dropped and its id answers like an
    unknown one.  Queued and running jobs are never dropped.  A job's
    [run] closure, which holds its parsed request, is released once the
    job starts.

    Worker count defaults to [PSAFLOW_SERVICE_WORKERS] if set.  Workers
    are OCaml 5 [Domain]s spawned through {!Flow_par.Pool}, so N jobs
    execute truly in parallel on multi-core hosts — systhread workers
    only ever interleaved on one runtime lock.  The scheduler's own
    state stays behind one mutex (submission bookkeeping is cheap), and
    every {!Store} lookup and insert happens under it, so store access
    is serialized with submission.  Coalescing stays here rather than
    in the store cache's single-flight: a coalesced submission must get
    its job id back at submit time, while [find_or_compute] blocks its
    caller until the value exists.  All engine state a flow
    touches while running is domain-safe: the profile cache is
    mutex-guarded, MiniC node ids are numbered per program (no shared
    counter), the metrics registry locks, and [rand01] state is
    per-run.  A job's result bytes are a function of its submission
    alone, not of the jobs the daemon ran before it. *)

module Metrics = Flow_obs.Metrics

type job = {
  id : int;
  key : string;  (** {!Store} content address *)
  label : string;
  mode : Protocol.mode;
  strategy : Protocol.strategy;
  cached : bool;
  request_id : string;
      (** the submitting request's id; a coalesced submission keeps the
          first requester's id (one execution, one trace) *)
  mutable run : (unit -> Protocol.job_result) option;
      (** [None] once started (and for cached submissions) *)
  mutable state : Protocol.job_state;
  mutable started_at : float option;
  mutable finished_at : float option;
  submitted_at : float;
  mutable result : Protocol.job_result option;
}

type t = {
  lock : Mutex.t;
  work : Condition.t;  (** signalled when the queue gains work or stops *)
  idle : Condition.t;  (** signalled when a worker finishes a job *)
  queue : job Queue.t;
  queue_capacity : int;
  jobs : (int, job) Hashtbl.t;
  finished : int Queue.t;  (** ids of finished jobs, oldest first *)
  active_by_key : (string, job) Hashtbl.t;  (** queued/running only *)
  store : Protocol.job_result Store.t;
  metrics : Metrics.t;
  req_log : Req_trace.t;  (** sampled + slow request-trace rings *)
  mutable next_id : int;
  mutable accepting : bool;
  mutable stopping : bool;
  mutable running : int;
  mutable workers : Flow_par.Pool.workers option;
}

(* Default domain count: one worker per core up to 8 (flow execution is
   memory-bandwidth-hungry, like the DSE pool), never fewer than 2 so a
   slow job cannot starve the queue even on a 1-core container. *)
let default_workers () =
  Flow_obs.Env.int ~name:"PSAFLOW_SERVICE_WORKERS"
    ~default:(max 2 (min 8 (Domain.recommended_domain_count ())))
    ~min:1 ()

(** Finished jobs kept fetchable: 16 full batches. *)
let max_finished = 16 * Protocol.max_batch_jobs

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let now () = Unix.gettimeofday ()

let set_queue_gauge_locked t =
  Metrics.set_gauge t.metrics "queue_depth" (float_of_int (Queue.length t.queue))

(* Record [id] as finished, dropping the oldest finished jobs past
   [max_finished]. *)
let retire_locked t id =
  Queue.push id t.finished;
  while Queue.length t.finished > max_finished do
    Hashtbl.remove t.jobs (Queue.pop t.finished)
  done

let finish_locked t job outcome =
  job.finished_at <- Some (now ());
  (match outcome with
  | Ok r ->
      job.state <- Protocol.Done;
      job.result <- Some r;
      Store.add t.store job.key r;
      Metrics.incr t.metrics "jobs_completed";
      Flow_obs.Log.debugf "scheduler: job #%d (%s) done" job.id job.label;
      (match (job.started_at, job.finished_at) with
      | Some a, Some b -> Metrics.observe t.metrics "flow_wall_s" (b -. a)
      | _ -> ())
  | Error msg ->
      job.state <- Protocol.Failed msg;
      Metrics.incr t.metrics "jobs_failed";
      Flow_obs.Log.warnf "scheduler: job #%d (%s) failed: %s" job.id job.label
        msg);
  (* fresh-disposition latency: queue wait + execution, submit to
     finish (the cached/coalesced histograms live in [submit]) *)
  Metrics.observe t.metrics "job_ms_fresh"
    (1000.0 *. (now () -. job.submitted_at));
  Flow_obs.Trace.instant ~cat:"scheduler" "job.finish"
    ~args:
      [
        ("job_id", Flow_obs.Attr.Int job.id);
        ("request_id", Flow_obs.Attr.String job.request_id);
        ( "state",
          Flow_obs.Attr.String (Protocol.state_to_string job.state) );
      ];
  Hashtbl.remove t.active_by_key job.key;
  retire_locked t job.id;
  t.running <- t.running - 1;
  Condition.broadcast t.idle

let worker_loop t (_worker : int) =
  let rec next () =
    Mutex.lock t.lock;
    let rec await () =
      if not (Queue.is_empty t.queue) then Some (Queue.pop t.queue)
      else if t.stopping then None
      else (
        Condition.wait t.work t.lock;
        await ())
    in
    match await () with
    | None ->
        Mutex.unlock t.lock;
        ()
    | Some job ->
        let run = Option.get job.run in
        job.run <- None;
        job.state <- Protocol.Running;
        job.started_at <- Some (now ());
        t.running <- t.running + 1;
        set_queue_gauge_locked t;
        Mutex.unlock t.lock;
        Flow_obs.Log.debugf "scheduler: job #%d (%s) running" job.id job.label;
        (* the whole execution — start instant, flow root span, finish
           instant — runs inside a request recording; Req_trace retains
           it when sampled or slow *)
        Req_trace.record t.req_log ~request_id:job.request_id ~job_id:job.id
          ~label:job.label (fun () ->
            Flow_obs.Trace.instant ~cat:"scheduler" "job.start"
              ~args:
                [
                  ("job_id", Flow_obs.Attr.Int job.id);
                  ("request_id", Flow_obs.Attr.String job.request_id);
                ];
            let outcome =
              match run () with
              | r -> Ok r
              | exception e -> Error (Printexc.to_string e)
            in
            with_lock t (fun () -> finish_locked t job outcome));
        next ()
  in
  next ()

let create ?(workers = default_workers ()) ?(queue_capacity = 64)
    ?(store_capacity = 256) ?store_shards ?trace_sample ?trace_slow_ms ~metrics
    () =
  if workers <= 0 then invalid_arg "Scheduler.create: workers must be positive";
  if queue_capacity <= 0 then
    invalid_arg "Scheduler.create: queue_capacity must be positive";
  let t =
    {
      lock = Mutex.create ();
      work = Condition.create ();
      idle = Condition.create ();
      queue = Queue.create ();
      queue_capacity;
      jobs = Hashtbl.create 64;
      finished = Queue.create ();
      active_by_key = Hashtbl.create 64;
      store = Store.create ?shards:store_shards ~capacity:store_capacity ();
      metrics;
      req_log =
        Req_trace.create ?sample:trace_sample ?slow_ms:trace_slow_ms ();
      next_id = 0;
      accepting = true;
      stopping = false;
      running = 0;
      workers = None;
    }
  in
  Metrics.set_gauge metrics "queue_depth" 0.0;
  Metrics.set_gauge metrics "worker_domains" (float_of_int workers);
  t.workers <- Some (Flow_par.Pool.spawn_workers workers (worker_loop t));
  t

(** Submit one resolved job.  [run] must be self-contained (it executes
    on a worker thread).  [request_id] names the originating request in
    the job's trace and lifecycle instants; it plays no part in
    dedup — coalescing and caching still key on [key] alone.  Returns
    the job id and how the submission was disposed of; [Error] is
    queue-full backpressure or a draining scheduler. *)
let submit t ~key ~label ~mode ~strategy ~request_id run :
    (int * [ `Fresh | `Coalesced | `Cached ], [ `Queue_full | `Shutting_down ])
    result =
  let t0 = now () in
  with_lock t (fun () ->
      if not t.accepting then Error `Shutting_down
      else
        let submitted disposition (job_id : int) =
          Flow_obs.Log.debugf "scheduler: job #%d (%s) submitted (%s)" job_id
            label
            (Protocol.disposition_to_string disposition);
          Flow_obs.Trace.instant ~cat:"scheduler" "job.submit"
            ~args:
              [
                ("job_id", Flow_obs.Attr.Int job_id);
                ("request_id", Flow_obs.Attr.String request_id);
                ( "disposition",
                  Flow_obs.Attr.String
                    (Protocol.disposition_to_string disposition) );
              ];
          (* cached/coalesced submissions never execute: their whole
             service latency is this bookkeeping, recorded per
             disposition (the fresh histogram is fed at finish) *)
          (match disposition with
          | `Cached ->
              Metrics.observe t.metrics "job_ms_cached"
                (1000.0 *. (now () -. t0))
          | `Coalesced ->
              Metrics.observe t.metrics "job_ms_coalesced"
                (1000.0 *. (now () -. t0))
          | `Fresh -> ());
          Ok (job_id, disposition)
        in
        match Hashtbl.find_opt t.active_by_key key with
        | Some live -> submitted `Coalesced live.id
        | None -> (
            let fresh ~cached ~result ~state =
              t.next_id <- t.next_id + 1;
              {
                id = t.next_id;
                key;
                label;
                mode;
                strategy;
                cached;
                request_id;
                run = (if cached then None else Some run);
                state;
                started_at = None;
                finished_at = None;
                submitted_at = now ();
                result;
              }
            in
            match Store.find t.store key with
            | Some r ->
                let job =
                  fresh ~cached:true ~result:(Some r) ~state:Protocol.Done
                in
                Hashtbl.add t.jobs job.id job;
                retire_locked t job.id;
                submitted `Cached job.id
            | None ->
                if Queue.length t.queue >= t.queue_capacity then
                  Error `Queue_full
                else begin
                  let job =
                    fresh ~cached:false ~result:None ~state:Protocol.Queued
                  in
                  Hashtbl.add t.jobs job.id job;
                  Hashtbl.add t.active_by_key key job;
                  Queue.push job t.queue;
                  set_queue_gauge_locked t;
                  Condition.signal t.work;
                  submitted `Fresh job.id
                end))

let view_locked (j : job) : Protocol.job_view =
  let wall_s =
    match (j.started_at, j.finished_at) with
    | Some a, Some b -> Some (b -. a)
    | Some a, None -> Some (now () -. a)
    | None, _ -> None
  in
  {
    Protocol.job_id = j.id;
    label = j.label;
    mode = j.mode;
    strategy = j.strategy;
    state = j.state;
    cached = j.cached;
    wall_s;
  }

let status t id : Protocol.job_view option =
  with_lock t (fun () ->
      Option.map view_locked (Hashtbl.find_opt t.jobs id))

let result t id : (Protocol.job_view * Protocol.job_result option) option =
  with_lock t (fun () ->
      match Hashtbl.find_opt t.jobs id with
      | None -> None
      | Some j -> Some (view_locked j, j.result))

(** All jobs, most recent first. *)
let list t : Protocol.job_view list =
  with_lock t (fun () ->
      Hashtbl.fold (fun _ j acc -> j :: acc) t.jobs []
      |> List.sort (fun (a : job) b -> compare b.id a.id)
      |> List.map view_locked)

(** Cumulative (hits, misses) of store lookups at submit time. *)
let store_stats t =
  let s = Flow_memo.Cache.stats t.store in
  (s.hits, s.misses)

(** Retained request traces (the sampled ring, or the slow ring with
    [~slow:true]) as JSON, newest first. *)
let traces ?slow t = Req_trace.to_json ?slow t.req_log

(** (executions recorded, sampled traces retained, slow exemplars
    retained). *)
let trace_stats t = Req_trace.stats t.req_log

(** Stop accepting submissions, run the queue dry, join the worker
    domains. *)
let shutdown t =
  Mutex.lock t.lock;
  t.accepting <- false;
  while not (Queue.is_empty t.queue && t.running = 0) do
    Condition.wait t.idle t.lock
  done;
  t.stopping <- true;
  Condition.broadcast t.work;
  Mutex.unlock t.lock;
  match t.workers with
  | Some w ->
      Flow_par.Pool.join_workers w;
      t.workers <- None
  | None -> ()
