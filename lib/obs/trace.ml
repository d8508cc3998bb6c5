(** Span tracer: nested, attributed spans over the whole flow engine,
    exported as Chrome trace-event JSON ([chrome://tracing] /
    [ui.perfetto.dev] load it directly).

    Spans are captured by {e recordings}.  {!record} runs a function
    inside a recording bound to the calling thread: every span and
    instant the thread emits while it runs is captured into the
    recording's private buffer, with the recording's own sequence
    numbers and epoch.  Recordings nest: a span goes into every
    recording open on its thread, so a daemon job's always-on request
    recording and a [--trace] submission's own recording both see the
    flow.  A recording only sees its own thread's spans; no other
    thread's work ever leaks into it.

    With no recording open anywhere, the fast path of every probe is
    one atomic load, so instrumentation left in hot code (interpreter
    runs, DSE candidates) costs nothing when nothing is recorded.

    Spans carry the id of the domain (or, with {!set_tid_provider}, the
    systhread) that opened them.  Each span records two kinds of time:
    wall-clock from the installed {!set_clock} (default [Sys.time],
    processor seconds — the CLI and daemon install [Unix.gettimeofday]),
    and the recording's sequence numbers taken at open and close.  The
    sequence numbers drive the [~normalize:true] export, which is
    byte-deterministic for a deterministic execution regardless of
    timer resolution. *)

type kind = Span | Instant

type span = {
  sp_name : string;
  sp_cat : string;
  sp_tid : int;
  sp_kind : kind;
  sp_begin : int;  (** recording sequence number at open *)
  mutable sp_end : int;  (** sequence number at close; [-1] while open *)
  sp_ts : float;  (** seconds since the recording opened, from the clock *)
  mutable sp_dur : float;
  mutable sp_args : (string * Attr.value) list;
}

type recording = {
  mutable events : span list;  (** reverse open order *)
  mutable stack : span list;  (** open spans, innermost first *)
  mutable seq : int;
  epoch : float;
}

let lock = Mutex.create ()

(* The open recordings of each tid, innermost first; [open_recordings]
   counts them so the nothing-recorded fast path takes no lock. *)
let recordings : (int, recording list) Hashtbl.t = Hashtbl.create 8
let open_recordings = Atomic.make 0
let clock = ref Sys.time
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

(* [tid]'s open recordings, innermost first; lock held. *)
let open_on tid = Option.value ~default:[] (Hashtbl.find_opt recordings tid)

(* Nothing records anywhere: every probe's lock-free fast path. *)
let idle () = Atomic.get open_recordings = 0

(* [g tid rqs] under the lock, for the calling thread's tid and open
   recordings. *)
let on_thread g =
  let tid = !tid_provider () in
  with_lock (fun () -> g tid (open_on tid))

let tick rq =
  rq.seq <- rq.seq + 1;
  rq.seq

(* Append a new event to [rq]; lock held.  An instant closes at once. *)
let add_event rq ~name ~cat ~tid ~kind ~args =
  let b = tick rq in
  let sp =
    {
      sp_name = name;
      sp_cat = cat;
      sp_tid = tid;
      sp_kind = kind;
      sp_begin = b;
      sp_end = (match kind with Instant -> b | Span -> -1);
      sp_ts = !clock () -. rq.epoch;
      sp_dur = 0.0;
      sp_args = args;
    }
  in
  rq.events <- sp :: rq.events;
  sp

let close_span rq sp =
  sp.sp_end <- tick rq;
  sp.sp_dur <- !clock () -. rq.epoch -. sp.sp_ts;
  rq.stack <-
    (match rq.stack with
    | top :: rest when top == sp -> rest
    | st -> List.filter (fun s -> s != sp) st)

(** Run [f] inside a span, recorded into every recording open on the
    calling thread (each with its own sequence numbers, so each stays
    independently deterministic).  With none open this is just [f ()].
    The span closes even if [f] raises. *)
let with_span ?(cat = "flow") ?(args = []) name f =
  if idle () then f ()
  else
    match
      on_thread (fun tid ->
          List.map (fun rq ->
              let sp = add_event rq ~name ~cat ~tid ~kind:Span ~args in
              rq.stack <- sp :: rq.stack;
              (rq, sp)))
    with
    | [] -> f ()
    | opened ->
        Fun.protect
          ~finally:(fun () ->
            with_lock (fun () ->
                List.iter (fun (rq, sp) -> close_span rq sp) opened))
          f

(** Append attributes to the innermost open span of the calling
    thread, in each of its recordings; no-op where no span is open. *)
let add_args kvs =
  if kvs <> [] && not (idle ()) then
    on_thread (fun _ ->
        List.iter (fun rq ->
            match rq.stack with
            | top :: _ -> top.sp_args <- top.sp_args @ kvs
            | [] -> ()))

(** A zero-duration marker event (job lifecycle transitions, etc.). *)
let instant ?(cat = "flow") ?(args = []) name =
  if not (idle ()) then
    on_thread (fun tid ->
        List.iter (fun rq ->
            ignore (add_event rq ~name ~cat ~tid ~kind:Instant ~args)))

(* ------------------------------------------------------------------ *)
(* Recordings                                                          *)
(* ------------------------------------------------------------------ *)

(** [record f] runs [f] inside a new recording bound to the calling
    thread and returns [f]'s outcome with the recording's completed
    spans and instants in open order.  The spans come back even when
    [f] raises: the outcome is then the exception and its backtrace
    (see {!value}).  Recordings already open on the thread stay open
    and capture the same spans. *)
let record f =
  let tid = !tid_provider () in
  let rq = { events = []; stack = []; seq = 0; epoch = !clock () } in
  with_lock (fun () -> Hashtbl.replace recordings tid (rq :: open_on tid));
  Atomic.incr open_recordings;
  let outcome =
    match f () with
    | v -> Ok v
    | exception e -> Error (e, Printexc.get_raw_backtrace ())
  in
  with_lock (fun () ->
      match List.filter (fun r -> r != rq) (open_on tid) with
      | [] -> Hashtbl.remove recordings tid
      | rest -> Hashtbl.replace recordings tid rest);
  Atomic.decr open_recordings;
  (outcome, List.rev (List.filter (fun s -> s.sp_end >= 0) rq.events))

(** The value of a {!record} outcome, re-raising what [f] raised. *)
let value = function
  | Ok v -> v
  | Error (e, bt) -> Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Chrome trace-event export                                           *)
(* ------------------------------------------------------------------ *)

let micros f = f *. 1e6

(** An explicit span list (e.g. from {!record}) as a Chrome
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
