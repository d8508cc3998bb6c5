(** Span tracer: nested, attributed spans over the whole flow engine,
    exported as Chrome trace-event JSON ([chrome://tracing] /
    [ui.perfetto.dev] load it directly).

    Disabled by default; the fast path of every probe is one atomic
    load, so instrumentation left in hot code (interpreter runs, DSE
    candidates) costs nothing when no trace is being recorded.

    Recording is mutex-guarded and domain-safe: spans carry the id of
    the domain (or, with {!set_tid_provider}, the systhread) that opened
    them, and nesting is tracked per tid, so pool workers produce
    correctly nested per-track spans.  Each span records two kinds of
    time: wall-clock from the installed {!set_clock} (default
    [Sys.time], processor seconds — the CLI and daemon install
    [Unix.gettimeofday]), and a pair of global sequence numbers taken at
    open and close.  The sequence numbers drive the [~normalize:true]
    export, which is byte-deterministic for a deterministic execution
    (a flow runs in one domain) regardless of timer resolution.

    Independently of the global recording, a thread can open a
    {e request recording} ({!request_begin} / {!request_end}): every
    span and instant the thread emits while the recording is open is
    captured into a private buffer with its own sequence numbers and
    epoch, regardless of whether global tracing is enabled.  The daemon
    uses this to capture a complete trace of each sampled or slow job
    without ever touching the global tracer; the fast path grows by one
    atomic load.  A request recording only sees the opening thread's
    spans — work fanned out to pool domains mid-request lands on other
    tids and is not captured (the service executes one job per worker
    domain, so a job's own spans all share its tid). *)

type kind = Span | Instant

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_kind : kind;
  sp_begin : int;  (** global sequence number at open *)
  mutable sp_end : int;  (** sequence number at close; [-1] while open *)
  sp_ts : float;  (** seconds since {!start}, from the installed clock *)
  mutable sp_dur : float;
  mutable sp_args : (string * Attr.value) list;
}

let lock = Mutex.create ()
let enabled_flag = Atomic.make false
let events : span list ref = ref []  (* reverse open order *)
let seq = ref 0
let stacks : (int, span list) Hashtbl.t = Hashtbl.create 8
let clock = ref Sys.time
let epoch = ref 0.0
let default_tid () = (Domain.self () :> int)
let tid_provider = ref default_tid

let with_lock f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(** Install the wall-clock source (e.g. [Unix.gettimeofday]; the
    observability library itself is stdlib-only and defaults to
    [Sys.time]). *)
let set_clock f = clock := f

(** Install the track-id source.  The default distinguishes domains;
    the service daemon installs a provider that also distinguishes
    systhreads, so concurrent jobs land on separate tracks. *)
let set_tid_provider f = tid_provider := f

let is_enabled () = Atomic.get enabled_flag

(* Request recordings: per-tid private span buffers, keyed by the tid
   that opened them.  [active_requests] mirrors the table size so the
   disabled-everything fast path stays two atomic loads with no lock. *)
type recording = {
  mutable rq_events : span list;  (** reverse open order *)
  mutable rq_stack : span list;
  mutable rq_seq : int;
  rq_epoch : float;
}

let requests : (int, recording) Hashtbl.t = Hashtbl.create 8
let active_requests = Atomic.make 0

(** Drop any previous recording and start a new one. *)
let start () =
  with_lock (fun () ->
      events := [];
      seq := 0;
      Hashtbl.reset stacks;
      epoch := !clock ());
  Atomic.set enabled_flag true

(** Stop recording (the events stay available for {!export}). *)
let stop () = Atomic.set enabled_flag false

let push_locked tid sp =
  events := sp :: !events;
  let st = Option.value ~default:[] (Hashtbl.find_opt stacks tid) in
  Hashtbl.replace stacks tid (sp :: st)

let pop_locked tid sp =
  match Hashtbl.find_opt stacks tid with
  | Some (top :: rest) when top == sp -> Hashtbl.replace stacks tid rest
  | Some st -> Hashtbl.replace stacks tid (List.filter (fun s -> s != sp) st)
  | None -> ()

let make_span ~name ~cat ~tid ~kind ~sp_begin ~sp_end ~ts ~args =
  {
    sp_name = name;
    sp_cat = cat;
    sp_tid = tid;
    sp_kind = kind;
    sp_begin;
    sp_end;
    sp_ts = ts;
    sp_dur = 0.0;
    sp_args = args;
  }

(** Run [f] inside a span.  When neither global tracing nor a request
    recording is active this is just [f ()].  The span closes even if
    [f] raises.  When both sinks are active the span is recorded into
    each with its own sequence numbers (the two recordings stay
    independently deterministic). *)
let with_span ?(cat = "flow") ?(args = []) name f =
  if not (is_enabled () || Atomic.get active_requests > 0) then f ()
  else begin
    let tid = !tid_provider () in
    let opened =
      with_lock (fun () ->
          let g =
            if Atomic.get enabled_flag then begin
              incr seq;
              let sp =
                make_span ~name ~cat ~tid ~kind:Span ~sp_begin:!seq ~sp_end:(-1)
                  ~ts:(!clock () -. !epoch) ~args
              in
              push_locked tid sp;
              Some sp
            end
            else None
          in
          let r =
            match Hashtbl.find_opt requests tid with
            | None -> None
            | Some rq ->
                rq.rq_seq <- rq.rq_seq + 1;
                let sp =
                  make_span ~name ~cat ~tid ~kind:Span ~sp_begin:rq.rq_seq
                    ~sp_end:(-1)
                    ~ts:(!clock () -. rq.rq_epoch)
                    ~args
                in
                rq.rq_events <- sp :: rq.rq_events;
                rq.rq_stack <- sp :: rq.rq_stack;
                Some (rq, sp)
          in
          (g, r))
    in
    match opened with
    | None, None -> f ()  (* raced with stop/request_end: no sink *)
    | g, r ->
        Fun.protect
          ~finally:(fun () ->
            with_lock (fun () ->
                (match g with
                | Some sp ->
                    incr seq;
                    sp.sp_end <- !seq;
                    sp.sp_dur <- !clock () -. !epoch -. sp.sp_ts;
                    pop_locked tid sp
                | None -> ());
                match r with
                | Some (rq, sp) ->
                    rq.rq_seq <- rq.rq_seq + 1;
                    sp.sp_end <- rq.rq_seq;
                    sp.sp_dur <- !clock () -. rq.rq_epoch -. sp.sp_ts;
                    (match rq.rq_stack with
                    | top :: rest when top == sp -> rq.rq_stack <- rest
                    | st -> rq.rq_stack <- List.filter (fun s -> s != sp) st)
                | None -> ()))
          f
  end

(** Append attributes to the innermost open span of the calling
    domain/thread (in the global recording and the thread's request
    recording alike); no-op when no span is open. *)
let add_args kvs =
  if (is_enabled () || Atomic.get active_requests > 0) && kvs <> [] then
    let tid = !tid_provider () in
    with_lock (fun () ->
        (match Hashtbl.find_opt stacks tid with
        | Some (top :: _) when is_enabled () ->
            top.sp_args <- top.sp_args @ kvs
        | _ -> ());
        match Hashtbl.find_opt requests tid with
        | Some { rq_stack = top :: _; _ } -> top.sp_args <- top.sp_args @ kvs
        | _ -> ())

(** A zero-duration marker event (job lifecycle transitions, etc.). *)
let instant ?(cat = "flow") ?(args = []) name =
  if is_enabled () || Atomic.get active_requests > 0 then
    let tid = !tid_provider () in
    with_lock (fun () ->
        if Atomic.get enabled_flag then begin
          incr seq;
          events :=
            make_span ~name ~cat ~tid ~kind:Instant ~sp_begin:!seq ~sp_end:!seq
              ~ts:(!clock () -. !epoch) ~args
            :: !events
        end;
        match Hashtbl.find_opt requests tid with
        | Some rq ->
            rq.rq_seq <- rq.rq_seq + 1;
            rq.rq_events <-
              make_span ~name ~cat ~tid ~kind:Instant ~sp_begin:rq.rq_seq
                ~sp_end:rq.rq_seq
                ~ts:(!clock () -. rq.rq_epoch)
                ~args
              :: rq.rq_events
        | None -> ())

(* ------------------------------------------------------------------ *)
(* Request recordings                                                  *)
(* ------------------------------------------------------------------ *)

(** Open a request recording bound to the calling thread.  Every span
    and instant this thread emits until {!request_end} is captured,
    independent of the global tracer.  A second [request_begin] on the
    same thread discards the first recording. *)
let request_begin () =
  let tid = !tid_provider () in
  with_lock (fun () ->
      if not (Hashtbl.mem requests tid) then Atomic.incr active_requests;
      Hashtbl.replace requests tid
        { rq_events = []; rq_stack = []; rq_seq = 0; rq_epoch = !clock () })

(** Close the calling thread's request recording and return its
    completed spans in open order (still-open spans are dropped).
    Returns [[]] when no recording is open. *)
let request_end () =
  let tid = !tid_provider () in
  with_lock (fun () ->
      match Hashtbl.find_opt requests tid with
      | None -> []
      | Some rq ->
          Hashtbl.remove requests tid;
          Atomic.decr active_requests;
          List.rev (List.filter (fun s -> s.sp_end >= 0) rq.rq_events))

(** Closed spans and instants of the current recording, in open order.
    Spans still open (e.g. when called mid-trace) are excluded. *)
let completed_spans () =
  with_lock (fun () ->
      List.rev (List.filter (fun s -> s.sp_end >= 0) !events))

(** Number of completed spans matching [cat] (and [name], if given). *)
let count ?name ~cat () =
  List.length
    (List.filter
       (fun s ->
         s.sp_cat = cat
         && match name with None -> true | Some n -> s.sp_name = n)
       (completed_spans ()))

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let micros f = f *. 1e6

(** An explicit span list (e.g. from {!request_end}) as a Chrome
    trace-event JSON document.  Events appear in span-open order.  With
    [~normalize:true], timestamps and durations are replaced by the
    recording's open/close sequence numbers (one tick per event
    boundary): the output depends only on the order of instrumented
    operations, so a deterministic execution exports byte-identical
    documents on every run. *)
let export_spans ?(normalize = false) spans =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i sp ->
      if i > 0 then Buffer.add_string buf ",\n";
      let ts, dur =
        if normalize then
          (float_of_int sp.sp_begin, float_of_int (sp.sp_end - sp.sp_begin))
        else (micros sp.sp_ts, micros sp.sp_dur)
      in
      Buffer.add_string buf "{\"name\":";
      Buffer.add_string buf (Attr.escape_json_string sp.sp_name);
      Buffer.add_string buf ",\"cat\":";
      Buffer.add_string buf (Attr.escape_json_string sp.sp_cat);
      Buffer.add_string buf
        (match sp.sp_kind with
        | Span -> ",\"ph\":\"X\""
        | Instant -> ",\"ph\":\"i\",\"s\":\"t\"");
      Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d" sp.sp_tid);
      Buffer.add_string buf (Printf.sprintf ",\"ts\":%.3f" ts);
      (match sp.sp_kind with
      | Span -> Buffer.add_string buf (Printf.sprintf ",\"dur\":%.3f" dur)
      | Instant -> ());
      if sp.sp_args <> [] then begin
        Buffer.add_string buf ",\"args\":";
        Buffer.add_string buf (Attr.list_to_json_object sp.sp_args)
      end;
      Buffer.add_char buf '}')
    spans;
  Buffer.add_string buf "],\"displayTimeUnit\":\"ms\"}\n";
  Buffer.contents buf

(** The global recording as a Chrome trace-event JSON document. *)
let export ?normalize () = export_spans ?normalize (completed_spans ())
