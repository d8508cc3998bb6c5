(** The flow daemon: an accept loop over a Unix-domain or TCP socket,
    one handler thread per connection, requests dispatched against the
    shared {!Scheduler} and {!Metrics} registry.

    A connection may carry any number of length-prefixed request frames;
    each gets exactly one response frame.  Malformed frames and unknown
    versions are answered with typed errors rather than dropped, so a
    misbehaving client cannot distinguish "daemon died" from "daemon
    said no".

    [shutdown] is cooperative: the handler answers [Shutting_down],
    then the listener closes and the scheduler drains (queued jobs
    complete) before [serve] returns. *)

module Metrics = Flow_obs.Metrics

type config = {
  workers : int;
  queue_capacity : int;
  store_capacity : int;
  store_shards : int;  (** lock striping of the result store's cache *)
  max_connections : int;
      (** concurrent connection cap; further connects are answered with
          a [Server_busy] error and closed (queue-full-style rejection),
          so an accept storm cannot exhaust handler threads *)
}

let default_config () =
  {
    workers = Scheduler.default_workers ();
    queue_capacity = 64;
    store_capacity = 256;
    store_shards = Flow_memo.default_shards;
    max_connections = 64;
  }

type t = {
  sched : Scheduler.t;
  metrics : Metrics.t;
  listener : Unix.file_descr;
  stop_wr : Unix.file_descr;  (** self-pipe: one byte = stop accepting *)
  mutable stopping : bool;
  stop_lock : Mutex.t;
  max_connections : int;
  mutable connections : int;  (** live handler threads, under [stop_lock] *)
}

let request_counter = function
  | Protocol.Submit_flow _ -> "requests_submit_flow"
  | Protocol.Submit_batch _ -> "requests_submit_batch"
  | Protocol.Job_status _ -> "requests_job_status"
  | Protocol.Fetch_result _ -> "requests_fetch_result"
  | Protocol.Fetch_batch _ -> "requests_fetch_batch"
  | Protocol.List_jobs -> "requests_list_jobs"
  | Protocol.Metrics -> "requests_metrics"
  | Protocol.Svc_trace _ -> "requests_svc_trace"
  | Protocol.Shutdown -> "requests_shutdown"

(* Fallback request ids for pre-v3 peers that mint none: "srv-N" with a
   process-wide counter, so every job's trace still names a distinct
   request. *)
let srv_request_seq = Atomic.make 0

let request_id_of (s : Protocol.submission) =
  match s.request_id with
  | Some rid -> rid
  | None -> Printf.sprintf "srv-%d" (Atomic.fetch_and_add srv_request_seq 1)

let metrics_json t : Json.t =
  let hits, misses = Scheduler.store_stats t.sched in
  let traced, retained, retained_slow = Scheduler.trace_stats t.sched in
  Metrics.to_json
    ~extra:
      [
        ("store_hits", Json.Int hits);
        ("store_misses", Json.Int misses);
        ( "request_traces",
          Json.Obj
            [
              ("executed", Json.Int traced);
              ("sampled", Json.Int retained);
              ("slow", Json.Int retained_slow);
            ] );
        (* the process-wide engine registry: profile-cache hit/miss/
           eviction, pool utilisation, interpreter cycles, DSE candidate
           counts — everything the flow engine records while jobs run *)
        ("engine", Metrics.to_json Flow_obs.Metrics.global);
      ]
    t.metrics

(* Closing the listener from a handler thread does not reliably wake a
   blocked [accept] on Linux; the accept loop therefore selects on a
   self-pipe alongside the listener, and shutdown writes one byte. *)
let begin_shutdown t =
  Mutex.lock t.stop_lock;
  let first = not t.stopping in
  t.stopping <- true;
  Mutex.unlock t.stop_lock;
  if first then
    try ignore (Unix.write t.stop_wr (Bytes.make 1 '!') 0 1)
    with Unix.Unix_error _ -> ()

(* One submission, shared by the single and batch paths.  The batch
   variant reports failures per item instead of failing the frame, so a
   poison job in position 3 does not void positions 0-2. *)
let submit_one t (s : Protocol.submission) :
    (int * Protocol.disposition, Protocol.error_kind) result =
  match Flow_exec.resolve s with
  | Error e ->
      Metrics.incr t.metrics "requests_rejected";
      Error e
  | Ok { key; label; run } -> (
      let request_id = request_id_of s in
      match
        Scheduler.submit t.sched ~key ~label ~mode:s.mode ~strategy:s.strategy
          ~request_id
          (run ~request_id:(Some request_id))
      with
      | Ok (job_id, disposition) -> Ok (job_id, disposition)
      | Error `Queue_full ->
          Metrics.incr t.metrics "requests_rejected";
          Error Protocol.Queue_full
      | Error `Shutting_down ->
          Metrics.incr t.metrics "requests_rejected";
          Error (Protocol.Server_error "shutting down"))

let fetch_one t id : Protocol.batch_fetch_item =
  match Scheduler.result t.sched id with
  | None -> Error (Protocol.Unknown_job id)
  | Some (view, Some r) when view.state = Protocol.Done -> Ok (view, Some r)
  | Some (view, _) -> Ok (view, None)

let dispatch t (req : Protocol.request) : Protocol.response =
  match req with
  | Protocol.Submit_flow s -> (
      match submit_one t s with
      | Ok (job_id, disposition) -> Protocol.Submitted { job_id; disposition }
      | Error e -> Protocol.Error e)
  | Protocol.Submit_batch subs ->
      Protocol.Submitted_batch (List.map (submit_one t) subs)
  | Protocol.Job_status id -> (
      match Scheduler.status t.sched id with
      | Some view -> Protocol.Status view
      | None -> Protocol.Error (Protocol.Unknown_job id))
  | Protocol.Fetch_result id -> (
      match Scheduler.result t.sched id with
      | None -> Protocol.Error (Protocol.Unknown_job id)
      | Some (view, Some r) when view.state = Protocol.Done ->
          Protocol.Result (view, r)
      | Some (view, _) ->
          (* not finished (or failed): report state, client decides *)
          Protocol.Status view)
  | Protocol.Fetch_batch ids -> Protocol.Results_batch (List.map (fetch_one t) ids)
  | Protocol.List_jobs -> Protocol.Jobs (Scheduler.list t.sched)
  | Protocol.Metrics -> Protocol.Metrics_data (metrics_json t)
  | Protocol.Svc_trace { slow } ->
      Protocol.Traces (Scheduler.traces ~slow t.sched)
  | Protocol.Shutdown -> Protocol.Shutting_down

let handle_request t (req : Protocol.request) : Protocol.response =
  Metrics.incr t.metrics "requests_total";
  Metrics.incr t.metrics (request_counter req);
  let t0 = Unix.gettimeofday () in
  let resp = dispatch t req in
  (* per-error-kind handling latency ("req_ms_error_<tag>"): how long
     each failure class holds a handler thread — a queue_full rejection
     should be microseconds, a bad_request that parsed megabytes of
     MiniC first is worth seeing *)
  (match resp with
  | Protocol.Error e ->
      Metrics.observe t.metrics
        ("req_ms_error_" ^ Protocol.error_kind_tag e)
        (1000.0 *. (Unix.gettimeofday () -. t0))
  | _ -> ());
  resp

let handle_connection t fd =
  let c = Protocol.conn fd in
  let rec loop () =
    match Protocol.read_request c with
    | None -> ()
    | Some (Error e) ->
        Metrics.incr t.metrics "requests_total";
        Metrics.incr t.metrics "requests_malformed";
        Protocol.write_response c (Protocol.Error e);
        loop ()
    | Some (Ok req) ->
        let resp = handle_request t req in
        Protocol.write_response c resp;
        if req = Protocol.Shutdown then begin_shutdown t else loop ()
  in
  (* the slot and the socket are released whatever the handler raises *)
  let release () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    Mutex.lock t.stop_lock;
    t.connections <- t.connections - 1;
    Metrics.set_gauge t.metrics "connections_active"
      (float_of_int t.connections);
    Mutex.unlock t.stop_lock
  in
  Fun.protect ~finally:release @@ fun () ->
  try loop () with
  | Protocol.Frame_error fe -> (
      Metrics.incr t.metrics "requests_malformed";
      try
        Protocol.write_response c
          (Protocol.Error
             (Protocol.Bad_request (Protocol.frame_error_message fe)))
      with _ -> ())
  | Unix.Unix_error _ | Sys_error _ -> ()

(* Over the cap: answer the very first frame with [Server_busy] and
   close.  The client sees a typed error, not a hang or a reset. *)
let reject_connection t fd =
  Metrics.incr t.metrics "connections_rejected";
  (try
     let c = Protocol.conn fd in
     match Protocol.read_request c with
     | None -> ()
     | Some _ -> Protocol.write_response c (Protocol.Error Protocol.Server_busy)
   with Protocol.Frame_error _ | Unix.Unix_error _ | Sys_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

(* Claim a connection slot; the handler thread releases it on exit. *)
let try_admit t =
  Mutex.lock t.stop_lock;
  let admitted = t.connections < t.max_connections in
  if admitted then begin
    t.connections <- t.connections + 1;
    Metrics.set_gauge t.metrics "connections_active"
      (float_of_int t.connections)
  end;
  Mutex.unlock t.stop_lock;
  admitted

(** Bind and serve until a [shutdown] request arrives.  Blocks.  The
    Unix socket path is unlinked before bind and after drain. *)
let serve ?(config = default_config ()) (addr : Protocol.addr) =
  (* a client disconnecting mid-response must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (* observability: real timestamps for spans, and thread-unique trace
     ids (handler/worker systhreads share one domain) *)
  Flow_obs.Trace.set_clock Unix.gettimeofday;
  Flow_obs.Trace.set_tid_provider (fun () ->
      (((Domain.self () : Domain.id) :> int) * 1_000_000)
      + Thread.id (Thread.self ()));
  (match addr with
  | Protocol.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Protocol.Tcp _ -> ());
  let domain =
    match addr with
    | Protocol.Unix_path _ -> Unix.PF_UNIX
    | Protocol.Tcp _ -> Unix.PF_INET
  in
  let listener = Unix.socket domain Unix.SOCK_STREAM 0 in
  (match addr with
  | Protocol.Tcp _ -> Unix.setsockopt listener Unix.SO_REUSEADDR true
  | Protocol.Unix_path _ -> ());
  Unix.bind listener (Protocol.sockaddr_of_addr addr);
  Unix.listen listener 16;
  let metrics = Metrics.create () in
  let sched =
    Scheduler.create ~workers:config.workers
      ~queue_capacity:config.queue_capacity
      ~store_capacity:config.store_capacity ~store_shards:config.store_shards
      ~metrics ()
  in
  let stop_rd, stop_wr = Unix.pipe () in
  let t =
    {
      sched;
      metrics;
      listener;
      stop_wr;
      stopping = false;
      stop_lock = Mutex.create ();
      max_connections = config.max_connections;
      connections = 0;
    }
  in
  Flow_obs.Log.infof "daemon listening on %s (%d workers)"
    (Protocol.addr_to_string addr) config.workers;
  let rec accept_loop () =
    match Unix.select [ listener; stop_rd ] [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_loop ()
    | readable, _, _ ->
        if List.mem stop_rd readable then ()
        else begin
          (match Unix.accept listener with
          | fd, _ ->
              if try_admit t then begin
                Flow_obs.Log.debugf "daemon: connection accepted";
                ignore (Thread.create (handle_connection t) fd)
              end
              else begin
                Flow_obs.Log.warnf
                  "daemon: connection rejected (limit %d reached)"
                  t.max_connections;
                ignore (Thread.create (reject_connection t) fd)
              end
          | exception Unix.Unix_error _ -> ());
          accept_loop ()
        end
  in
  accept_loop ();
  Flow_obs.Log.infof "daemon shutting down: draining queued jobs";
  begin_shutdown t;
  (try Unix.close listener with Unix.Unix_error _ -> ());
  (try Unix.close stop_rd with Unix.Unix_error _ -> ());
  (try Unix.close stop_wr with Unix.Unix_error _ -> ());
  Scheduler.shutdown t.sched;
  match addr with
  | Protocol.Unix_path p -> ( try Unix.unlink p with Unix.Unix_error _ -> ())
  | Protocol.Tcp _ -> ()
