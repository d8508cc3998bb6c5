(** Wire protocol of the flow service.

    Messages are length-prefixed JSON: a 4-byte big-endian payload length
    followed by one JSON document in {!Json.to_string}'s encoding.  Both
    directions carry a protocol version field ["v"]; a server answering a
    request of an unknown version replies with a [Bad_version] error
    instead of guessing.

    Requests: [submit_flow] (a registered benchmark or inline MiniC
    source; informed/uninformed mode; PSA strategy; optional budget),
    [job_status], [fetch_result], [list_jobs], [metrics], [shutdown] —
    and, since protocol version 2, [submit_batch]/[fetch_batch], which
    carry many jobs in one frame so a load generator does not pay one
    round-trip per request.  Batch items succeed or fail independently:
    one poison MiniC source rejects that item with its typed error
    while the rest of the frame proceeds.

    Errors are typed so clients can react programmatically: MiniC parse
    and typecheck failures, unknown benchmarks, queue-full backpressure,
    connection-limit rejection ([server_busy]), client-side timeouts and
    malformed/mis-versioned requests each have their own tag. *)

(** Current protocol version.  v2 added [submit_batch]/[fetch_batch]
    and the [server_busy]/[timeout] error tags; v3 added the optional
    [request_id] submission field (client-minted, threaded through the
    scheduler into every span of the job's trace) and the [svc_trace]
    request for retrieving sampled/slow request traces. *)
let version = 3

(** Oldest version still accepted on decode.  v1 peers can keep
    speaking every single-job request unchanged; only the batch frames
    demand v2. *)
let min_version = 1

(** Items allowed in one [submit_batch]/[fetch_batch] frame.  A frame
    beyond this is refused with [Bad_request] instead of letting one
    peer monopolise the scheduler lock for an unbounded scan. *)
let max_batch_jobs = 256

(** Frames larger than this are refused on both ends; a stray
    non-protocol peer writing garbage otherwise turns into a
    multi-gigabyte allocation. *)
let max_frame_bytes = 16 * 1024 * 1024

(* ------------------------------------------------------------------ *)
(* Message types                                                       *)
(* ------------------------------------------------------------------ *)

type mode = Informed | Uninformed

type strategy = Fig3 | Model_perf | Model_cost | Model_energy

type source =
  | Bench of string  (** id in [Benchmarks.Registry] *)
  | Inline of string  (** MiniC source text *)

type submission = {
  source : source;
  mode : mode;
  strategy : strategy;
  x_threshold : float;
  budget : float option;
  trace : bool;  (** capture a Chrome trace of the job's execution *)
  request_id : string option;
      (** v3: client-minted id carried through scheduler and flow spans;
          deliberately excluded from the result-store key so identical
          work still coalesces and caches across request ids *)
}

let submission ?(mode = Informed) ?(strategy = Fig3) ?(x_threshold = 2.0)
    ?budget ?(trace = false) ?request_id source =
  { source; mode; strategy; x_threshold; budget; trace; request_id }

type request =
  | Submit_flow of submission
  | Submit_batch of submission list  (** v2: many submissions, one frame *)
  | Job_status of int
  | Fetch_result of int
  | Fetch_batch of int list  (** v2: many fetches, one frame *)
  | List_jobs
  | Metrics
  | Svc_trace of { slow : bool }
      (** v3: retrieve retained request traces — the sampled ring, or
          the slow-exemplar ring with [slow = true] *)
  | Shutdown

type job_state = Queued | Running | Done | Failed of string

type job_view = {
  job_id : int;
  label : string;  (** benchmark id, or ["inline"] *)
  mode : mode;
  strategy : strategy;
  state : job_state;
  cached : bool;  (** served from the result store without execution *)
  wall_s : float option;  (** execution wall-clock, once finished *)
}

type job_result = {
  report : string;  (** rendered exactly as the [psaflow run] CLI prints *)
  data : Json.t;  (** structured designs/timings/log *)
}

type error_kind =
  | Bad_request of string  (** malformed JSON or missing/invalid fields *)
  | Bad_version of int
  | Unknown_benchmark of string
  | Minic_parse_error of string
  | Minic_type_error of string
  | Queue_full
  | Server_busy  (** connection limit reached; queue-full-style rejection *)
  | Timeout of string  (** client-side connect/receive deadline elapsed *)
  | Unknown_job of int
  | Server_error of string

type disposition = [ `Fresh | `Coalesced | `Cached ]

(** One item of a [submitted_batch] response: accepted with an id and
    disposition, or rejected with the same typed error a single-job
    submission would get. *)
type batch_submit_item = (int * disposition, error_kind) result

(** One item of a [results_batch] response: the job's view plus its
    result once [Done] ([None] while queued/running — the client
    decides whether to re-poll), or a typed error (unknown id,
    failure). *)
type batch_fetch_item = (job_view * job_result option, error_kind) result

type response =
  | Submitted of { job_id : int; disposition : disposition }
  | Submitted_batch of batch_submit_item list
  | Status of job_view
  | Result of job_view * job_result
  | Results_batch of batch_fetch_item list
  | Jobs of job_view list
  | Metrics_data of Json.t
  | Traces of Json.t
      (** v3: retained request-trace records, newest first *)
  | Shutting_down
  | Error of error_kind

(* ------------------------------------------------------------------ *)
(* String tables                                                       *)
(* ------------------------------------------------------------------ *)

let mode_to_string = function Informed -> "informed" | Uninformed -> "uninformed"

let mode_of_string = function
  | "informed" -> Some Informed
  | "uninformed" -> Some Uninformed
  | _ -> None

let strategy_to_string = function
  | Fig3 -> "fig3"
  | Model_perf -> "model_perf"
  | Model_cost -> "model_cost"
  | Model_energy -> "model_energy"

let strategy_of_string = function
  | "fig3" -> Some Fig3
  | "model_perf" -> Some Model_perf
  | "model_cost" -> Some Model_cost
  | "model_energy" -> Some Model_energy
  | _ -> None

let strategy_names = [ "fig3"; "model_perf"; "model_cost"; "model_energy" ]

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"

let disposition_to_string = function
  | `Fresh -> "fresh"
  | `Coalesced -> "coalesced"
  | `Cached -> "cached"

let error_message = function
  | Bad_request m -> Printf.sprintf "bad request: %s" m
  | Bad_version v -> Printf.sprintf "unsupported protocol version %d" v
  | Unknown_benchmark b -> Printf.sprintf "unknown benchmark %S" b
  | Minic_parse_error m -> Printf.sprintf "MiniC parse error: %s" m
  | Minic_type_error m -> Printf.sprintf "MiniC type error: %s" m
  | Queue_full -> "job queue is full, retry later"
  | Server_busy -> "server connection limit reached, retry later"
  | Timeout m -> Printf.sprintf "timed out: %s" m
  | Unknown_job id -> Printf.sprintf "no job #%d" id
  | Server_error m -> Printf.sprintf "server error: %s" m

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                       *)
(* ------------------------------------------------------------------ *)

open Json

let opt_field name f = function None -> [] | Some v -> [ (name, f v) ]

let submission_fields (s : submission) =
  (match s.source with
  | Bench id -> [ ("bench", String id) ]
  | Inline src -> [ ("source", String src) ])
  @ [
      ("mode", String (mode_to_string s.mode));
      ("strategy", String (strategy_to_string s.strategy));
      ("x_threshold", Float s.x_threshold);
    ]
  @ opt_field "budget" (fun b -> Float b) s.budget
  @ (if s.trace then [ ("trace", Bool true) ] else [])
  @ opt_field "request_id" (fun r -> String r) s.request_id

let request_to_json = function
  | Submit_flow s ->
      Obj
        ([ ("v", Int version); ("type", String "submit_flow") ]
        @ submission_fields s)
  | Submit_batch ss ->
      Obj
        [
          ("v", Int version);
          ("type", String "submit_batch");
          ("jobs", List (List.map (fun s -> Obj (submission_fields s)) ss));
        ]
  | Job_status id ->
      Obj [ ("v", Int version); ("type", String "job_status"); ("job_id", Int id) ]
  | Fetch_result id ->
      Obj
        [ ("v", Int version); ("type", String "fetch_result"); ("job_id", Int id) ]
  | Fetch_batch ids ->
      Obj
        [
          ("v", Int version);
          ("type", String "fetch_batch");
          ("job_ids", List (List.map (fun id -> Int id) ids));
        ]
  | List_jobs -> Obj [ ("v", Int version); ("type", String "list_jobs") ]
  | Metrics -> Obj [ ("v", Int version); ("type", String "metrics") ]
  | Svc_trace { slow } ->
      Obj [ ("v", Int version); ("type", String "svc_trace"); ("slow", Bool slow) ]
  | Shutdown -> Obj [ ("v", Int version); ("type", String "shutdown") ]

let job_view_to_json (j : job_view) =
  Obj
    ([
       ("job_id", Int j.job_id);
       ("label", String j.label);
       ("mode", String (mode_to_string j.mode));
       ("strategy", String (strategy_to_string j.strategy));
       ("state", String (state_to_string j.state));
       ("cached", Bool j.cached);
     ]
    @ (match j.state with
      | Failed msg -> [ ("error", String msg) ]
      | _ -> [])
    @ opt_field "wall_s" (fun s -> Float s) j.wall_s)

(* The wire tag and extra payload fields of a typed error, shared by
   top-level error responses and per-item batch errors. *)
let error_tag_fields e =
  match e with
  | Bad_request m -> ("bad_request", [ ("message", String m) ])
  | Bad_version v -> ("bad_version", [ ("got", Int v) ])
  | Unknown_benchmark b -> ("unknown_benchmark", [ ("benchmark", String b) ])
  | Minic_parse_error m -> ("minic_parse_error", [ ("message", String m) ])
  | Minic_type_error m -> ("minic_type_error", [ ("message", String m) ])
  | Queue_full -> ("queue_full", [])
  | Server_busy -> ("server_busy", [])
  | Timeout m -> ("timeout", [ ("message", String m) ])
  | Unknown_job id -> ("unknown_job", [ ("job_id", Int id) ])
  | Server_error m -> ("server_error", [ ("message", String m) ])

(** The stable wire tag of an error kind (also names the per-error-kind
    latency histograms in [svc-metrics]). *)
let error_kind_tag e = fst (error_tag_fields e)

let error_fields e =
  let tag, extra = error_tag_fields e in
  ("error", String tag) :: extra

let error_to_json e =
  Obj ([ ("v", Int version); ("type", String "error") ] @ error_fields e)

let batch_submit_item_to_json : batch_submit_item -> Json.t = function
  | Ok (job_id, disposition) ->
      Obj
        [
          ("job_id", Int job_id);
          ("disposition", String (disposition_to_string disposition));
        ]
  | Error e -> Obj (error_fields e)

let batch_fetch_item_to_json : batch_fetch_item -> Json.t = function
  | Ok (view, result) ->
      Obj
        (("job", job_view_to_json view)
        ::
        (match result with
        | Some r -> [ ("report", String r.report); ("data", r.data) ]
        | None -> []))
  | Error e -> Obj (error_fields e)

let response_to_json = function
  | Submitted { job_id; disposition } ->
      Obj
        [
          ("v", Int version);
          ("type", String "submitted");
          ("job_id", Int job_id);
          ("disposition", String (disposition_to_string disposition));
        ]
  | Submitted_batch items ->
      Obj
        [
          ("v", Int version);
          ("type", String "submitted_batch");
          ("items", List (List.map batch_submit_item_to_json items));
        ]
  | Results_batch items ->
      Obj
        [
          ("v", Int version);
          ("type", String "results_batch");
          ("items", List (List.map batch_fetch_item_to_json items));
        ]
  | Status j ->
      Obj [ ("v", Int version); ("type", String "status"); ("job", job_view_to_json j) ]
  | Result (j, r) ->
      Obj
        [
          ("v", Int version);
          ("type", String "result");
          ("job", job_view_to_json j);
          ("report", String r.report);
          ("data", r.data);
        ]
  | Jobs js ->
      Obj
        [
          ("v", Int version);
          ("type", String "jobs");
          ("jobs", List (List.map job_view_to_json js));
        ]
  | Metrics_data m ->
      Obj [ ("v", Int version); ("type", String "metrics"); ("metrics", m) ]
  | Traces t ->
      Obj [ ("v", Int version); ("type", String "traces"); ("traces", t) ]
  | Shutting_down -> Obj [ ("v", Int version); ("type", String "shutting_down") ]
  | Error e -> error_to_json e

(* ------------------------------------------------------------------ *)
(* JSON decoding                                                       *)
(* ------------------------------------------------------------------ *)

(* Decoders return [Error (Bad_request _)] (or [Bad_version]) rather than
   raising: a daemon must answer garbage with a typed error, not die. *)

let field name conv j =
  match Option.bind (member name j) conv with
  | Some v -> Ok v
  | None -> Error (Bad_request (Printf.sprintf "missing or invalid %S" name))

let opt name conv j =
  match member name j with
  | None | Some Null -> Ok None
  | Some v -> (
      match conv v with
      | Some x -> Ok (Some x)
      | None -> Error (Bad_request (Printf.sprintf "invalid %S" name)))

let ( let* ) = Result.bind

(* Accepts any version in [min_version, version] and returns it: the
   caller gates version-specific message types on the value. *)
let check_version j =
  let* v = field "v" to_int_opt j in
  if v >= min_version && v <= version then Ok v else Error (Bad_version v)

(* [v] is the enclosing frame's declared protocol version; batch items
   inherit it.  The v3 [request_id] field is refused — not silently
   dropped — in older-versioned frames, matching the batch-frame
   discipline. *)
let submission_of_json ?(v = version) j =
  let* source =
    match (member "bench" j, member "source" j) with
    | Some (String id), None -> Ok (Bench id)
    | None, Some (String src) -> Ok (Inline src)
    | _ -> Error (Bad_request "exactly one of \"bench\"/\"source\" required")
  in
  let* mode = opt "mode" (fun v -> Option.bind (to_string_opt v) mode_of_string) j in
  let* strategy =
    opt "strategy" (fun v -> Option.bind (to_string_opt v) strategy_of_string) j
  in
  let* x_threshold = opt "x_threshold" to_float_opt j in
  let* budget = opt "budget" to_float_opt j in
  let* trace = opt "trace" to_bool_opt j in
  let* request_id = opt "request_id" to_string_opt j in
  let* () =
    if request_id <> None && v < 3 then
      Error (Bad_request "\"request_id\" requires protocol version >= 3")
    else Ok ()
  in
  Ok
    {
      source;
      mode = Option.value mode ~default:Informed;
      strategy = Option.value strategy ~default:Fig3;
      x_threshold = Option.value x_threshold ~default:2.0;
      budget;
      trace = Option.value trace ~default:false;
      request_id;
    }

(* A batch list must be present, within [max_batch_jobs], and non-empty
   (an empty batch is almost certainly a client bug; refusing it beats
   answering with an empty frame that looks like success). *)
let batch_items name j =
  let* items = field name to_list_opt j in
  if items = [] then Error (Bad_request (Printf.sprintf "empty %S" name))
  else if List.length items > max_batch_jobs then
    Error
      (Bad_request
         (Printf.sprintf "batch of %d exceeds the limit of %d"
            (List.length items) max_batch_jobs))
  else Ok items

(* Version-gated message types (batches in v2, trace retrieval in v3):
   a peer declaring an older version gets a typed refusal naming the
   version floor instead of a decoded message its declared version
   cannot contain. *)
let require_version ~floor v ty =
  if v >= floor then Ok ()
  else
    Error
      (Bad_request
         (Printf.sprintf "%S requires protocol version >= %d" ty floor))

let require_v2 v ty = require_version ~floor:2 v ty
let require_v3 v ty = require_version ~floor:3 v ty

let request_of_json j : (request, error_kind) result =
  let* v = check_version j in
  let* ty = field "type" to_string_opt j in
  match ty with
  | "submit_flow" ->
      let* s = submission_of_json ~v j in
      Ok (Submit_flow s)
  | "submit_batch" ->
      let* () = require_v2 v ty in
      let* items = batch_items "jobs" j in
      let* subs =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* s = submission_of_json ~v item in
            Ok (s :: acc))
          (Ok []) items
      in
      Ok (Submit_batch (List.rev subs))
  | "job_status" ->
      let* id = field "job_id" to_int_opt j in
      Ok (Job_status id)
  | "fetch_result" ->
      let* id = field "job_id" to_int_opt j in
      Ok (Fetch_result id)
  | "fetch_batch" ->
      let* () = require_v2 v ty in
      let* items = batch_items "job_ids" j in
      let* ids =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match to_int_opt item with
            | Some id -> Ok (id :: acc)
            | None -> Error (Bad_request "invalid job id in \"job_ids\""))
          (Ok []) items
      in
      Ok (Fetch_batch (List.rev ids))
  | "list_jobs" -> Ok List_jobs
  | "metrics" -> Ok Metrics
  | "svc_trace" ->
      let* () = require_v3 v ty in
      let* slow = opt "slow" to_bool_opt j in
      Ok (Svc_trace { slow = Option.value slow ~default:false })
  | "shutdown" -> Ok Shutdown
  | other -> Error (Bad_request (Printf.sprintf "unknown request type %S" other))

let job_view_of_json j : (job_view, error_kind) result =
  let* job_id = field "job_id" to_int_opt j in
  let* label = field "label" to_string_opt j in
  let* mode = field "mode" (fun v -> Option.bind (to_string_opt v) mode_of_string) j in
  let* strategy =
    field "strategy" (fun v -> Option.bind (to_string_opt v) strategy_of_string) j
  in
  let* state_s = field "state" to_string_opt j in
  let* state =
    match state_s with
    | "queued" -> Ok Queued
    | "running" -> Ok Running
    | "done" -> Ok Done
    | "failed" ->
        let msg =
          Option.value ~default:"unknown failure"
            (Option.bind (member "error" j) to_string_opt)
        in
        Ok (Failed msg)
    | s -> Error (Bad_request (Printf.sprintf "unknown job state %S" s))
  in
  let* cached = field "cached" to_bool_opt j in
  let* wall_s = opt "wall_s" to_float_opt j in
  Ok { job_id; label; mode; strategy; state; cached; wall_s }

let error_of_json j : (error_kind, error_kind) result =
  let* tag = field "error" to_string_opt j in
  let msg () =
    Option.value ~default:""
      (Option.bind (member "message" j) to_string_opt)
  in
  match tag with
  | "bad_request" -> Ok (Bad_request (msg ()))
  | "bad_version" ->
      let got =
        Option.value ~default:(-1) (Option.bind (member "got" j) to_int_opt)
      in
      Ok (Bad_version got)
  | "unknown_benchmark" ->
      let b =
        Option.value ~default:""
          (Option.bind (member "benchmark" j) to_string_opt)
      in
      Ok (Unknown_benchmark b)
  | "minic_parse_error" -> Ok (Minic_parse_error (msg ()))
  | "minic_type_error" -> Ok (Minic_type_error (msg ()))
  | "queue_full" -> Ok Queue_full
  | "server_busy" -> Ok Server_busy
  | "timeout" -> Ok (Timeout (msg ()))
  | "unknown_job" ->
      let* id = field "job_id" to_int_opt j in
      Ok (Unknown_job id)
  | "server_error" -> Ok (Server_error (msg ()))
  | s -> Error (Bad_request (Printf.sprintf "unknown error tag %S" s))

let disposition_of_json j =
  let* disp = field "disposition" to_string_opt j in
  match disp with
  | "fresh" -> Ok `Fresh
  | "coalesced" -> Ok `Coalesced
  | "cached" -> Ok `Cached
  | s -> Error (Bad_request (Printf.sprintf "unknown disposition %S" s))

(* A batch item carrying an "error" field is a per-item typed error;
   anything else decodes as the success shape. *)
let batch_submit_item_of_json item : (batch_submit_item, error_kind) result =
  match member "error" item with
  | Some _ ->
      let* e = error_of_json item in
      Ok (Stdlib.Error e)
  | None ->
      let* job_id = field "job_id" to_int_opt item in
      let* disposition = disposition_of_json item in
      Ok (Stdlib.Ok (job_id, disposition))

let batch_fetch_item_of_json item : (batch_fetch_item, error_kind) result =
  match member "error" item with
  | Some _ ->
      let* e = error_of_json item in
      Ok (Stdlib.Error e)
  | None -> (
      let* jv = field "job" Option.some item in
      let* view = job_view_of_json jv in
      match (member "report" item, member "data" item) with
      | Some (String report), Some data ->
          Ok (Stdlib.Ok (view, Some { report; data }))
      | None, None -> Ok (Stdlib.Ok (view, None))
      | _ -> Error (Bad_request "batch item carries report without data"))

let decode_batch of_item items =
  List.fold_left
    (fun acc item ->
      let* acc = acc in
      let* v = of_item item in
      Ok (v :: acc))
    (Ok []) items
  |> Result.map List.rev

let response_of_json j : (response, error_kind) result =
  let* v = check_version j in
  let* ty = field "type" to_string_opt j in
  match ty with
  | "submitted" ->
      let* job_id = field "job_id" to_int_opt j in
      let* disposition = disposition_of_json j in
      Ok (Submitted { job_id; disposition })
  | "submitted_batch" ->
      let* () = require_v2 v ty in
      let* items = batch_items "items" j in
      let* items = decode_batch batch_submit_item_of_json items in
      Ok (Submitted_batch items)
  | "results_batch" ->
      let* () = require_v2 v ty in
      let* items = batch_items "items" j in
      let* items = decode_batch batch_fetch_item_of_json items in
      Ok (Results_batch items)
  | "status" ->
      let* jv = field "job" Option.some j in
      let* view = job_view_of_json jv in
      Ok (Status view)
  | "result" ->
      let* jv = field "job" Option.some j in
      let* view = job_view_of_json jv in
      let* report = field "report" to_string_opt j in
      let* data = field "data" Option.some j in
      Ok (Result (view, { report; data }))
  | "jobs" ->
      let* items = field "jobs" to_list_opt j in
      let* views =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let* v = job_view_of_json item in
            Ok (v :: acc))
          (Ok []) items
      in
      Ok (Jobs (List.rev views))
  | "metrics" ->
      let* m = field "metrics" Option.some j in
      Ok (Metrics_data m)
  | "traces" ->
      let* () = require_v3 v ty in
      let* t = field "traces" Option.some j in
      Ok (Traces t)
  | "shutting_down" -> Ok Shutting_down
  | "error" ->
      let* e = error_of_json j in
      Ok (Error e)
  | other ->
      Error (Bad_request (Printf.sprintf "unknown response type %S" other))

(* ------------------------------------------------------------------ *)
(* Endpoint addressing                                                 *)
(* ------------------------------------------------------------------ *)

(** Where the daemon listens: a Unix-domain socket path (default) or a
    TCP host/port. *)
type addr = Unix_path of string | Tcp of string * int

let default_socket_path () =
  match Sys.getenv_opt "PSAFLOW_SOCKET" with
  | Some p when p <> "" -> p
  | _ -> Filename.concat (Filename.get_temp_dir_name ()) "psaflow.sock"

let addr_to_string = function
  | Unix_path p -> p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

(** ["host:port"] parses as TCP; anything else is a socket path. *)
let addr_of_string s =
  match String.rindex_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port -> Tcp (String.sub s 0 i, port)
      | None -> Unix_path s)
  | _ -> Unix_path s

let sockaddr_of_addr = function
  | Unix_path p -> Unix.ADDR_UNIX p
  | Tcp (host, port) ->
      let ip =
        try (Unix.gethostbyname host).h_addr_list.(0)
        with Not_found | Invalid_argument _ -> Unix.inet_addr_loopback
      in
      Unix.ADDR_INET (ip, port)

(* ------------------------------------------------------------------ *)
(* Framing                                                             *)
(* ------------------------------------------------------------------ *)

type frame_error =
  | Truncated  (** peer closed mid-frame *)
  | Oversized of int  (** declared length exceeds {!max_frame_bytes} *)

exception Frame_error of frame_error

let frame_error_message = function
  | Truncated -> "truncated frame"
  | Oversized n -> Printf.sprintf "oversized frame (%d bytes)" n

(** [frame payload] is the wire form: 4-byte big-endian length, then the
    payload.  @raise Frame_error if the payload itself is oversized. *)
let frame payload =
  let n = String.length payload in
  if n > max_frame_bytes then raise (Frame_error (Oversized n));
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

(** Decode one frame from [s] starting at [pos].  Returns the payload and
    the offset just past the frame; [None] at end of input (a clean EOF
    boundary).  @raise Frame_error on truncation or an oversized header. *)
let unframe ?(pos = 0) (s : string) : (string * int) option =
  let len = String.length s in
  if pos >= len then None
  else if pos + 4 > len then raise (Frame_error Truncated)
  else
    let n = Int32.to_int (String.get_int32_be s pos) in
    if n < 0 || n > max_frame_bytes then raise (Frame_error (Oversized n))
    else if pos + 4 + n > len then raise (Frame_error Truncated)
    else Some (String.sub s (pos + 4) n, pos + 4 + n)

let really_read fd buf off len =
  let rec go off len =
    if len > 0 then
      let n = Unix.read fd buf off len in
      if n = 0 then raise (Frame_error Truncated) else go (off + n) (len - n)
  in
  go off len

let write_all fd b len =
  let rec go off =
    if off < len then go (off + Unix.write fd b off (len - off))
  in
  go 0

(* --- connections (the server's and the blocking client's I/O) --- *)

(** One end of a connection.  Frames are encoded into [out], with the
    4-byte header slot reserved up front, and pass through [io] in both
    directions; a received frame is parsed in place, with [out] as the
    scratch for strings that hold escapes.  Once the two buffers have
    grown to the connection's largest frame, a frame costs one blit and
    no heap allocation beyond the values decoded from it. *)
type conn = { fd : Unix.file_descr; out : Buffer.t; mutable io : Bytes.t }

let conn fd = { fd; out = Buffer.create 1024; io = Bytes.create 1024 }

(* Buffers past this size go back to their initial size after use, so
   one huge frame does not pin its memory for the connection's life. *)
let keep_bytes = 1 lsl 20

let reserve c n =
  if Bytes.length c.io < n then
    c.io <- Bytes.create (max n (2 * Bytes.length c.io))

let shrink c =
  if Bytes.length c.io > keep_bytes then c.io <- Bytes.create 1024;
  if Buffer.length c.out > keep_bytes then Buffer.reset c.out

(** Send [j] as one frame.  @raise Frame_error if the payload is
    oversized, before anything is written. *)
let send c j =
  let b = c.out in
  Buffer.clear b;
  Buffer.add_string b "\000\000\000\000";
  Json.encode b j;
  let n = Buffer.length b - 4 in
  if n > max_frame_bytes then (
    Buffer.reset b;
    raise (Frame_error (Oversized n)));
  reserve c (n + 4);
  Buffer.blit b 0 c.io 0 (n + 4);
  Bytes.set_int32_be c.io 0 (Int32.of_int n);
  Fun.protect ~finally:(fun () -> shrink c) @@ fun () ->
  write_all c.fd c.io (n + 4)

(** Receive one frame and parse it in place; [None] on a clean EOF at a
    frame boundary.  @raise Frame_error on truncation or an oversized
    declaration. *)
let recv c : (Json.t, string) result option =
  match Unix.read c.fd c.io 0 4 with
  | 0 -> None
  | n ->
      if n < 4 then really_read c.fd c.io n (4 - n);
      let len = Int32.to_int (Bytes.get_int32_be c.io 0) in
      if len < 0 || len > max_frame_bytes then
        raise (Frame_error (Oversized len));
      reserve c len;
      Fun.protect ~finally:(fun () -> shrink c) @@ fun () ->
      really_read c.fd c.io 0 len;
      Some
        (Json.parse_result ~len ~scratch:c.out (Bytes.unsafe_to_string c.io))

(* --- top-level helpers --- *)

let write_request c r = send c (request_to_json r)
let write_response c r = send c (response_to_json r)

let decode of_json = function
  | None -> None
  | Some (Stdlib.Error e) ->
      Some (Stdlib.Error (Bad_request ("invalid JSON: " ^ e)))
  | Some (Stdlib.Ok j) -> Some (of_json j)

let read_request c : (request, error_kind) result option =
  decode request_of_json (recv c)

let read_response c : (response, error_kind) result option =
  decode response_of_json (recv c)
