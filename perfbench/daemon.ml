(** The daemon leg: start [Flow_service.Server] in this process on a
    Unix socket, then drive it with closed-loop clients (each sends its
    next request only after the previous one has its result) for a
    fixed wall-clock window.

    Every submission gets a record of client-side spans: the submit
    frame's round trip, each poll, the fetch that returned the result,
    and the worker's execution time as the daemon reports it
    ([job_view.wall_s]). *)

module Protocol = Flow_service.Protocol
module Client = Flow_service.Client
module Server = Flow_service.Server

(** Shortest client poll interval between [fetch_result] attempts.
    The first poll goes out right after the submit returns. *)
let poll_interval_s = 0.001

(** The wait before the next poll of a request that has waited
    [waited] seconds: 5% of that, between 1 ms and 10 ms.  Poll lag
    stays a small share of any latency, and a long job is not polled
    hundreds of times. *)
let poll_interval ~waited = Float.min 0.010 (Float.max poll_interval_s (0.05 *. waited))

let poll_delay ~since = poll_interval ~waited:(Unix.gettimeofday () -. since)

(** Receive deadline of every client call; a daemon that stops
    answering fails the request as a timeout instead of hanging the
    run. *)
let client_timeout_ms = 15_000

type daemon = { addr : Protocol.addr; thread : Thread.t }

let sock_seq = ref 0

(** Start a daemon on a fresh socket under [dir] and wait until it
    accepts connections. *)
let start ~dir (config : Server.config) =
  incr sock_seq;
  let path = Filename.concat dir (Printf.sprintf "psabench-%d-%d.sock" (Unix.getpid ()) !sock_seq) in
  let addr = Protocol.Unix_path path in
  let thread = Thread.create (fun () -> Server.serve ~config addr) () in
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec wait () =
    match Client.connect ~timeout_ms:1000 addr with
    | c -> Client.close c
    | exception (Client.Client_error _ | Client.Protocol_failure _) ->
        if Unix.gettimeofday () > deadline then failwith "daemon did not come up";
        Thread.delay 0.002;
        wait ()
  in
  wait ();
  { addr; thread }

(** Shut the daemon down (it drains its queue) and join its thread. *)
let stop d =
  (try ignore (Client.rpc ~timeout_ms:client_timeout_ms d.addr Protocol.Shutdown)
   with _ -> ());
  Thread.join d.thread

(** Submit [sub] and wait for its result on one connection (set-up
    priming). *)
let submit_wait c (sub : Protocol.submission) =
  match Client.submit c sub with
  | _, Error e -> failwith ("priming rejected: " ^ Protocol.error_message e)
  | _, Ok (job_id, _) ->
      let rec poll () =
        match Client.request c (Protocol.Fetch_result job_id) with
        | Protocol.Result (_, r) -> r
        | Protocol.Status { state = Protocol.Failed m; _ } -> failwith ("priming failed: " ^ m)
        | Protocol.Status _ ->
            Thread.delay poll_interval_s;
            poll ()
        | _ -> failwith "priming: unexpected response"
      in
      poll ()

(* ------------------------------------------------------------------ *)
(* Per-submission records                                              *)
(* ------------------------------------------------------------------ *)

type rq = {
  op : int;  (** index of the op in the workload sequence *)
  pos : int;  (** position inside a batch frame (0 for singles) *)
  item : Gen.item;
  mutable t_submit : float;  (** submit frame sent *)
  mutable submit_ms : float;  (** submit frame round trip (whole frame for a batch) *)
  mutable disposition : Protocol.disposition option;
  mutable polls : int;
  mutable t_fetch : float;  (** start of the fetch that returned the result *)
  mutable fetch_ms : float;
  mutable t_done : float;  (** result (or expected typed error) received *)
  mutable exec_ms : float option;  (** worker wall time, executed jobs only *)
  mutable designs : int;  (** designs in the result *)
  mutable result : Protocol.job_result option;
      (** kept past its op only when asked for, or as a reference sample *)
  mutable error : Protocol.error_kind option;  (** typed error received *)
  mutable failure : string option;  (** why this submission failed *)
}

let make_rq op pos item =
  {
    op;
    pos;
    item;
    t_submit = 0.0;
    submit_ms = 0.0;
    disposition = None;
    polls = 0;
    t_fetch = 0.0;
    fetch_ms = 0.0;
    t_done = 0.0;
    exec_ms = None;
    designs = 0;
    result = None;
    error = None;
    failure = None;
  }

let ok rq = rq.failure = None && rq.t_done > 0.0
let latency_ms rq = 1000.0 *. (rq.t_done -. rq.t_submit)

let fail rq msg = if rq.failure = None then rq.failure <- Some msg

(* A typed error answers a submission correctly only when the item
   expected exactly that error. *)
let rejected rq e =
  rq.error <- Some e;
  rq.t_done <- Unix.gettimeofday ();
  match rq.item.Gen.expect with
  | Gen.Rejected tag when tag = Protocol.error_kind_tag e -> ()
  | _ -> fail rq ("refused: " ^ Protocol.error_message e)

let got_result rq (view : Protocol.job_view) (r : Protocol.job_result) ~tf =
  let t = Unix.gettimeofday () in
  rq.t_fetch <- tf;
  rq.fetch_ms <- 1000.0 *. (t -. tf);
  rq.t_done <- t;
  rq.designs <-
    (match Option.bind (Flow_service.Json.member "designs" r.data) Flow_service.Json.to_list_opt with
    | Some ds -> List.length ds
    | None -> 0);
  rq.result <- Some r;
  (if rq.disposition = Some `Fresh then
     match view.wall_s with Some s -> rq.exec_ms <- Some (1000.0 *. s) | None -> ());
  match (rq.item.Gen.expect, rq.disposition) with
  | Gen.Fresh, Some `Fresh | Gen.Cached, Some `Cached -> ()
  | (Gen.Fresh | Gen.Cached), d ->
      fail rq
        ("unexpected disposition "
        ^ match d with Some d -> Protocol.disposition_to_string d | None -> "none")
  | Gen.Rejected tag, _ -> fail rq ("expected " ^ tag ^ ", got a result")

let accepted rq (job_id, disposition) =
  rq.disposition <- Some disposition;
  job_id

let run_single c rq =
  rq.t_submit <- Unix.gettimeofday ();
  match Client.submit c rq.item.Gen.sub with
  | _, Error e ->
      rq.submit_ms <- 1000.0 *. (Unix.gettimeofday () -. rq.t_submit);
      rejected rq e
  | _, Ok acc ->
      rq.submit_ms <- 1000.0 *. (Unix.gettimeofday () -. rq.t_submit);
      let job_id = accepted rq acc in
      let rec poll () =
        let tf = Unix.gettimeofday () in
        rq.polls <- rq.polls + 1;
        match Client.request c (Protocol.Fetch_result job_id) with
        | Protocol.Result (view, r) -> got_result rq view r ~tf
        | Protocol.Status { state = Protocol.Failed m; _ } -> fail rq ("job failed: " ^ m)
        | Protocol.Status _ ->
            Thread.delay (poll_delay ~since:rq.t_submit);
            poll ()
        | Protocol.Error e -> fail rq ("fetch: " ^ Protocol.error_message e)
        | _ -> fail rq "fetch: unexpected response"
      in
      poll ()

let run_batch c rqs =
  let t0 = Unix.gettimeofday () in
  let items = Client.submit_batch c (List.map (fun rq -> rq.item.Gen.sub) rqs) in
  let rtt = 1000.0 *. (Unix.gettimeofday () -. t0) in
  let pending =
    List.filter_map
      (fun (rq, item) ->
        rq.t_submit <- t0;
        rq.submit_ms <- rtt;
        match item with
        | Error e ->
            rejected rq e;
            None
        | Ok acc -> Some (accepted rq acc, rq))
      (List.combine rqs items)
  in
  let rec drain pending =
    if pending <> [] then begin
      let tf = Unix.gettimeofday () in
      let answers = Client.fetch_batch c (List.map fst pending) in
      let still =
        List.filter_map
          (fun ((id, rq), answer) ->
            rq.polls <- rq.polls + 1;
            match answer with
            | Ok (view, Some r) when view.Protocol.state = Protocol.Done ->
                got_result rq view r ~tf;
                None
            | Ok ({ Protocol.state = Protocol.Failed m; _ }, _) ->
                fail rq ("job failed: " ^ m);
                None
            | Ok _ -> Some (id, rq)
            | Error e ->
                fail rq ("fetch: " ^ Protocol.error_message e);
                None)
          (List.combine pending answers)
      in
      if still <> [] then Thread.delay (poll_delay ~since:t0);
      drain still
    end
  in
  drain pending

(* ------------------------------------------------------------------ *)
(* The measured window                                                 *)
(* ------------------------------------------------------------------ *)

type window = {
  rqs : rq array;  (** in sequence order: by op, then batch position *)
  samples : rq list;  (** the first and last executed submissions, results kept *)
  wall_s : float;
  cpu_s : float;  (** process user + system CPU over the window *)
  peak_rss_kb : int;
}

let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(** Peak resident set of this process ([VmHWM]), in kB. *)
let peak_rss_kb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(** Drive [d] with [connections] closed-loop clients, each taking the
    next op of [ops] in turn, until [seconds] have passed and at least
    [min_requests] submissions are answered.  Ops in flight when the
    window closes finish and count.  Whole results are kept only for ops
    [keep] selects and for the reference samples, so client-side
    retention stays out of the process's peak RSS. *)
let run ?(keep = fun _ -> false) d ~connections ~seconds ~min_requests ~(ops : int -> Gen.op) :
    window =
  let next = Atomic.make 0 in
  let answered = Atomic.make 0 in
  let lock = Mutex.create () in
  let done_ = ref [] and samples = ref [] in
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. seconds in
  (* a run that cannot reach [min_requests] stops anyway, well inside
     the per-run time limit *)
  let hard_stop = t0 +. seconds +. 30.0 in
  let cpu0 = cpu_now () in
  let client () =
    let mine = ref [] in
    let first = ref None and last = ref None in
    let retain (rq : rq) =
      if rq.exec_ms <> None && rq.result <> None then begin
        if !first = None then first := Some rq
        else begin
          (match !last with Some l when not (keep l.op) -> l.result <- None | _ -> ());
          last := Some rq
        end
      end
      else if not (keep rq.op) then rq.result <- None
    in
    (match Client.connect ~timeout_ms:client_timeout_ms d.addr with
    | exception e -> prerr_endline ("psabench: connect: " ^ Printexc.to_string e)
    | c ->
        let c = ref c in
        (* a connection that failed mid-exchange is out of sync: replace it *)
        let reconnect () =
          Client.close !c;
          c := Client.connect ~timeout_ms:client_timeout_ms d.addr
        in
        let rec loop () =
          let now = Unix.gettimeofday () in
          if (now < deadline || Atomic.get answered < min_requests) && now < hard_stop
          then begin
            let i = Atomic.fetch_and_add next 1 in
            let rqs =
              match ops i with
              | Gen.Single item -> [ make_rq i 0 item ]
              | Gen.Batch items -> List.mapi (make_rq i) items
            in
            (try
               match rqs with
               | [ rq ] -> run_single !c rq
               | _ -> run_batch !c rqs
             with
            | Client.Protocol_failure e ->
                List.iter (fun rq -> fail rq ("protocol: " ^ Protocol.error_message e)) rqs;
                reconnect ()
            | Client.Client_error m ->
                List.iter (fun rq -> fail rq ("client: " ^ m)) rqs;
                reconnect ());
            List.iter (fun rq -> if rq.t_done = 0.0 then fail rq "no answer") rqs;
            ignore (Atomic.fetch_and_add answered (List.length rqs));
            List.iter retain rqs;
            mine := List.rev_append rqs !mine;
            loop ()
          end
        in
        (* reconnecting can fail too; the client then stops and its
           unanswered work is already counted *)
        (try loop () with e -> prerr_endline ("psabench: client stopped: " ^ Printexc.to_string e));
        Client.close !c);
    Mutex.lock lock;
    done_ := List.rev_append !mine !done_;
    samples := List.filter_map Fun.id [ !first; !last ] @ !samples;
    Mutex.unlock lock
  in
  let threads = List.init connections (fun _ -> Thread.create client ()) in
  List.iter Thread.join threads;
  let wall_s = Unix.gettimeofday () -. t0 in
  let cpu_s = cpu_now () -. cpu0 in
  let rqs = Array.of_list !done_ in
  Array.sort (fun a b -> compare (a.op, a.pos) (b.op, b.pos)) rqs;
  let by_op = List.sort (fun a b -> compare (a.op, a.pos) (b.op, b.pos)) !samples in
  let samples =
    match by_op with [] -> [] | [ s ] -> [ s ] | s :: rest -> [ s; List.nth rest (List.length rest - 1) ]
  in
  { rqs; samples; wall_s; cpu_s; peak_rss_kb = peak_rss_kb () }

(** The daemon's own account of the run ([svc-metrics]). *)
let svc_metrics d : Flow_service.Json.t option =
  match Client.rpc ~timeout_ms:client_timeout_ms d.addr Protocol.Metrics with
  | Protocol.Metrics_data j -> Some j
  | _ -> None
  | exception _ -> None
