(** Always-on request-trace capture for the daemon.

    Every fresh (actually executed) job runs inside a
    {!Flow_obs.Trace.record} recording on its worker thread, so its
    complete span tree — the scheduler lifecycle instants, the
    flow-exec root span carrying the request id, and every
    task/analysis/DSE span the engine emits — is captured.  The
    recording is then {e retained} into one of two bounded rings:

    - the {b sampled} ring keeps every [sample_every]-th execution
      (every 10th in the daemon; deterministic: the 1st, the [1+N]th,
      ... by executed-job sequence, so the very first job of a fresh
      daemon is always retained and a given workload always samples
      the same jobs);
    - the {b slow} ring keeps every execution whose wall clock meets
      [slow_ms] (250 ms in the daemon), regardless of sampling — the
      exemplars you want when p99 moves.

    Cached and coalesced submissions never execute, so they cost
    nothing here; the recording overhead on fresh jobs is one span
    buffer append per instrumented operation.  Both rings are served to
    clients by the v3 [svc_trace] protocol request. *)

module Trace = Flow_obs.Trace

type record = {
  request_id : string;
  job_id : int;
  label : string;
  seq : int;  (** executed-job sequence number, 0-based *)
  wall_ms : float;
  sampled : bool;
  slow : bool;
  spans : Trace.span list;
}

type t = {
  lock : Mutex.t;
  sample_every : int;
  slow_ms : float;
  capacity : int;
  slow_capacity : int;
  mutable sampled_ring : record list;  (** newest first, <= capacity *)
  mutable slow_ring : record list;  (** newest first, <= slow_capacity *)
  mutable executed : int;
  mutable retained : int;
  mutable retained_slow : int;
}

(** A trace log retaining one in [sample] executed jobs (default 10;
    values below 1 mean every execution) and every execution at or over
    [slow_ms] milliseconds (default 250). *)
let create ?(capacity = 64) ?(slow_capacity = 32) ?(sample = 10)
    ?(slow_ms = 250.0) () =
  {
    lock = Mutex.create ();
    sample_every = max 1 sample;
    slow_ms;
    capacity;
    slow_capacity;
    sampled_ring = [];
    slow_ring = [];
    executed = 0;
    retained = 0;
    retained_slow = 0;
  }

let with_lock t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let take n l =
  let rec go n acc = function
    | [] -> List.rev acc
    | _ when n <= 0 -> List.rev acc
    | x :: rest -> go (n - 1) (x :: acc) rest
  in
  go n [] l

(** Run [f] (one job execution) inside a recording and retain the trace
    if this execution is sampled or slow, also when [f] raises (a slow
    failure is an exemplar too); [f]'s exception is then re-raised. *)
let record t ~request_id ~job_id ~label f =
  let seq =
    with_lock t (fun () ->
        let s = t.executed in
        t.executed <- t.executed + 1;
        s)
  in
  let sampled = seq mod t.sample_every = 0 in
  let t0 = Unix.gettimeofday () in
  let outcome, spans = Trace.record f in
  let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  let slow = wall_ms >= t.slow_ms in
  (if sampled || slow then
     let r =
       { request_id; job_id; label; seq; wall_ms; sampled; slow; spans }
     in
     with_lock t (fun () ->
         if sampled then begin
           t.retained <- t.retained + 1;
           t.sampled_ring <- take t.capacity (r :: t.sampled_ring)
         end;
         if slow then begin
           t.retained_slow <- t.retained_slow + 1;
           t.slow_ring <- take t.slow_capacity (r :: t.slow_ring)
         end));
  Trace.value outcome

(** Capture counters for [svc-metrics]: executions seen, traces
    retained into the sampled ring, slow exemplars retained. *)
let stats t =
  with_lock t (fun () -> (t.executed, t.retained, t.retained_slow))

let record_json (r : record) : Json.t =
  (* the normalized Chrome export is deterministic per request *)
  let trace = Trace.export_spans ~normalize:true r.spans in
  Json.Obj
    [
      ("request_id", Json.String r.request_id);
      ("job_id", Json.Int r.job_id);
      ("label", Json.String r.label);
      ("seq", Json.Int r.seq);
      ("wall_ms", Json.Float r.wall_ms);
      ("sampled", Json.Bool r.sampled);
      ("slow", Json.Bool r.slow);
      ("spans", Json.Int (List.length r.spans));
      ("trace", trace);
    ]

(** The requested ring as JSON, newest record first. *)
let to_json ?(slow = false) t : Json.t =
  let ring =
    with_lock t (fun () -> if slow then t.slow_ring else t.sampled_ring)
  in
  Json.List (List.map record_json ring)
