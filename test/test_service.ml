(** Tests for the flow-as-a-service subsystem (lib/service): the JSON
    library, the framed protocol, the content-addressed store, the
    scheduler, and an end-to-end daemon run over a loopback socket
    checked bit-identical against direct [Std_flow] execution. *)

module Json = Flow_service.Json
module Protocol = Flow_service.Protocol
module Store = Flow_service.Store
module Metrics = Flow_obs.Metrics
module Scheduler = Flow_service.Scheduler
module Server = Flow_service.Server
module Client = Flow_service.Client
module Flow_exec = Flow_service.Flow_exec
module Req_trace = Flow_service.Req_trace
module Perf_history = Flow_service.Perf_history

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Json: parsing units                                                 *)
(* ------------------------------------------------------------------ *)

let test_json_parse_basics () =
  check_str "string escape" "a\"b\\c\nd"
    (match Json.parse {|"a\"b\\c\nd"|} with
    | Json.String s -> s
    | _ -> "<not a string>");
  check "int" true (Json.parse "42" = Json.Int 42);
  check "negative int" true (Json.parse "-7" = Json.Int (-7));
  check "float" true (Json.parse "1.5" = Json.Float 1.5);
  check "exponent is float" true (Json.parse "1e3" = Json.Float 1000.0);
  check "null" true (Json.parse "null" = Json.Null);
  check "bools" true
    (Json.parse "[true,false]" = Json.List [ Json.Bool true; Json.Bool false ]);
  check "unicode escape" true (Json.parse {|"\u0041"|} = Json.String "A");
  check "surrogate pair" true
    (Json.parse {|"\ud83d\ude00"|} = Json.String "\xf0\x9f\x98\x80");
  check "nested" true
    (Json.parse {| {"a": [1, {"b": null}], "c": "x"} |}
    = Json.Obj
        [
          ("a", Json.List [ Json.Int 1; Json.Obj [ ("b", Json.Null) ] ]);
          ("c", Json.String "x");
        ]);
  check "whitespace tolerated" true
    (Json.parse " \n\t{ \"k\" : 1 } \r\n" = Json.Obj [ ("k", Json.Int 1) ])

let test_json_parse_errors () =
  let fails s =
    match Json.parse s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  check "empty" true (fails "");
  check "garbage" true (fails "wibble");
  check "trailing garbage" true (fails "{} {}");
  check "unterminated string" true (fails {|"abc|});
  check "unterminated array" true (fails "[1, 2");
  check "missing colon" true (fails {|{"a" 1}|});
  check "bad literal" true (fails "trueish");
  check "raw control char" true (fails "\"a\nb\"");
  check "bad escape" true (fails {|"\q"|});
  check "nan is not json" true (fails "nan")

let test_json_encode () =
  check_str "compact" {|{"a":[1,2.5,"x\n"],"b":null}|}
    (Json.to_string
       (Json.Obj
          [
            ( "a",
              Json.List [ Json.Int 1; Json.Float 2.5; Json.String "x\n" ] );
            ("b", Json.Null);
          ]));
  check "float always refloats" true
    (Json.parse (Json.to_string (Json.Float 1.0)) = Json.Float 1.0);
  check "non-finite rejected" true
    (match Json.to_string (Json.Float Float.nan) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* --- round-trip property ------------------------------------------- *)

let gen_json =
  let open QCheck.Gen in
  let gen_float =
    oneof
      [
        oneofl [ 0.0; -0.0; 1.0; -1.5; 3.14159265; 1e-9; 1.7e308; 5e-324 ];
        map2
          (fun a b -> float_of_int a /. float_of_int (abs b + 1))
          (int_range (-1000000) 1000000)
          (int_range 0 1000);
      ]
  in
  (* arbitrary bytes: control chars must escape, high bytes pass through *)
  let gen_string = string_size ~gen:char (int_bound 12) in
  let key = string_size ~gen:printable (int_bound 6) in
  let leaf =
    oneof
      [
        return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun n -> Json.Int n) int;
        map (fun f -> Json.Float f) gen_float;
        map (fun s -> Json.String s) gen_string;
      ]
  in
  let rec value fuel =
    if fuel = 0 then leaf
    else
      frequency
        [
          (3, leaf);
          ( 1,
            map (fun vs -> Json.List vs)
              (list_size (int_bound 4) (value (fuel - 1))) );
          ( 1,
            map (fun kvs -> Json.Obj kvs)
              (list_size (int_bound 4) (pair key (value (fuel - 1)))) );
        ]
  in
  value 3

let arb_json = QCheck.make ~print:Json.to_string gen_json

let json_roundtrip =
  Helpers.qtest ~count:500 "parse (to_string v) = v" arb_json (fun v ->
      Json.equal (Json.parse (Json.to_string v)) v)

let json_roundtrip_pretty =
  Helpers.qtest ~count:500 "parse (to_string_pretty v) = v" arb_json (fun v ->
      Json.equal (Json.parse (Json.to_string_pretty v)) v)

(* ------------------------------------------------------------------ *)
(* Protocol: encode/decode round-trips                                 *)
(* ------------------------------------------------------------------ *)

let sample_requests : Protocol.request list =
  [
    Protocol.Submit_flow
      (Protocol.submission ~mode:Protocol.Informed ~strategy:Protocol.Fig3
         (Protocol.Bench "nbody"));
    Protocol.Submit_flow
      (Protocol.submission ~mode:Protocol.Uninformed
         ~strategy:Protocol.Model_cost ~x_threshold:4.5 ~budget:0.25
         (Protocol.Inline "int main() { return 0; }"));
    Protocol.Job_status 7;
    Protocol.Fetch_result 3;
    Protocol.Submit_batch
      [
        Protocol.submission (Protocol.Bench "nbody");
        Protocol.submission ~strategy:Protocol.Model_perf
          (Protocol.Inline "int main() { return 0; }");
      ];
    Protocol.Fetch_batch [ 1; 2; 3 ];
    Protocol.List_jobs;
    Protocol.Metrics;
    Protocol.Shutdown;
  ]

let sample_view : Protocol.job_view =
  {
    Protocol.job_id = 9;
    label = "nbody";
    mode = Protocol.Informed;
    strategy = Protocol.Model_energy;
    state = Protocol.Done;
    cached = true;
    wall_s = Some 0.125;
  }

let sample_responses : Protocol.response list =
  [
    Protocol.Submitted { job_id = 1; disposition = `Fresh };
    Protocol.Submitted { job_id = 2; disposition = `Coalesced };
    Protocol.Submitted { job_id = 3; disposition = `Cached };
    Protocol.Status sample_view;
    Protocol.Status
      { sample_view with state = Protocol.Failed "boom"; wall_s = None };
    Protocol.Result
      ( sample_view,
        {
          Protocol.report = "\ndesign table\nbest: x (2.0x)\n";
          data = Json.Obj [ ("designs", Json.List []) ];
        } );
    Protocol.Jobs [ sample_view; { sample_view with job_id = 10 } ];
    Protocol.Metrics_data (Json.Obj [ ("requests_total", Json.Int 4) ]);
    Protocol.Shutting_down;
    Protocol.Error (Protocol.Bad_request "nope");
    Protocol.Error (Protocol.Bad_version 99);
    Protocol.Error (Protocol.Unknown_benchmark "wat");
    Protocol.Error (Protocol.Minic_parse_error "unexpected ')' at 3:1");
    Protocol.Error (Protocol.Minic_type_error "int vs double at 1:4");
    Protocol.Error Protocol.Queue_full;
    Protocol.Error Protocol.Server_busy;
    Protocol.Error (Protocol.Timeout "receive");
    Protocol.Error (Protocol.Unknown_job 12);
    Protocol.Error (Protocol.Server_error "disk on fire");
    Protocol.Submitted_batch
      [
        Ok (4, `Fresh);
        Ok (5, `Cached);
        Error (Protocol.Minic_parse_error "unexpected '{' at 1:11");
        Error Protocol.Queue_full;
      ];
    Protocol.Results_batch
      [
        Ok
          ( sample_view,
            Some
              {
                Protocol.report = "\ntable\nbest: y (3.0x)\n";
                data = Json.Obj [ ("best", Json.String "y") ];
              } );
        Ok ({ sample_view with state = Protocol.Running }, None);
        Error (Protocol.Unknown_job 77);
      ];
  ]

let test_protocol_roundtrip () =
  List.iter
    (fun r ->
      let j = Json.parse (Json.to_string (Protocol.request_to_json r)) in
      check "request round-trips" true (Protocol.request_of_json j = Ok r))
    sample_requests;
  List.iter
    (fun r ->
      let j = Json.parse (Json.to_string (Protocol.response_to_json r)) in
      check "response round-trips" true (Protocol.response_of_json j = Ok r))
    sample_responses

let test_protocol_versioning () =
  let j = Json.Obj [ ("v", Json.Int 99); ("type", Json.String "metrics") ] in
  check "future version refused" true
    (Protocol.request_of_json j = Error (Protocol.Bad_version 99));
  let j = Json.Obj [ ("type", Json.String "metrics") ] in
  check "missing version refused" true
    (match Protocol.request_of_json j with
    | Error (Protocol.Bad_request _) -> true
    | _ -> false);
  check "unknown type refused" true
    (match
       Protocol.request_of_json
         (Json.Obj [ ("v", Json.Int 1); ("type", Json.String "fry") ])
     with
    | Error (Protocol.Bad_request _) -> true
    | _ -> false);
  check "bench+source refused" true
    (match
       Protocol.request_of_json
         (Json.Obj
            [
              ("v", Json.Int 1);
              ("type", Json.String "submit_flow");
              ("bench", Json.String "nbody");
              ("source", Json.String "int main() { return 0; }");
            ])
     with
    | Error (Protocol.Bad_request _) -> true
    | _ -> false)

(* --- batch frames (protocol v2) ------------------------------------ *)

let gen_submission =
  let open QCheck.Gen in
  let* source =
    oneof
      [
        map (fun i -> Protocol.Bench (Printf.sprintf "bench%d" i)) (int_bound 9);
        map
          (fun i -> Protocol.Inline (Printf.sprintf "int main() { return %d; }" i))
          (int_bound 99);
      ]
  in
  let* mode = oneofl [ Protocol.Informed; Protocol.Uninformed ] in
  let* strategy =
    oneofl
      [ Protocol.Fig3; Protocol.Model_perf; Protocol.Model_cost;
        Protocol.Model_energy ]
  in
  let* x_threshold = map float_of_int (int_range 1 16) in
  let* budget = opt (map (fun n -> float_of_int n /. 4.0) (int_range 1 8)) in
  let* trace = bool in
  let* request_id = opt (map (Printf.sprintf "rq-%d") (int_bound 999)) in
  return
    { Protocol.source; mode; strategy; x_threshold; budget; trace; request_id }

let arb_submit_batch =
  QCheck.make
    ~print:(fun subs ->
      Json.to_string (Protocol.request_to_json (Protocol.Submit_batch subs)))
    QCheck.Gen.(list_size (int_range 1 20) gen_submission)

let batch_request_roundtrip =
  Helpers.qtest ~count:200 "submit_batch frame round-trips" arb_submit_batch
    (fun subs ->
      let req = Protocol.Submit_batch subs in
      let j = Json.parse (Json.to_string (Protocol.request_to_json req)) in
      Protocol.request_of_json j = Ok req)

let fetch_batch_roundtrip =
  Helpers.qtest ~count:200 "fetch_batch frame round-trips"
    QCheck.(list_of_size Gen.(int_range 1 50) (int_range 1 10_000))
    (fun ids ->
      let req = Protocol.Fetch_batch ids in
      let j = Json.parse (Json.to_string (Protocol.request_to_json req)) in
      Protocol.request_of_json j = Ok req)

let test_batch_limits () =
  let is_bad = function Error (Protocol.Bad_request _) -> true | _ -> false in
  let reparse j = Json.parse (Json.to_string j) in
  (* empty batches are refused *)
  check "empty submit_batch refused" true
    (is_bad
       (Protocol.request_of_json
          (reparse (Protocol.request_to_json (Protocol.Submit_batch [])))));
  check "empty fetch_batch refused" true
    (is_bad
       (Protocol.request_of_json
          (reparse (Protocol.request_to_json (Protocol.Fetch_batch [])))));
  (* a batch at the cap decodes; one past it is refused *)
  let ids n = List.init n (fun i -> i + 1) in
  check "batch at cap accepted" true
    (Protocol.request_of_json
       (reparse
          (Protocol.request_to_json
             (Protocol.Fetch_batch (ids Protocol.max_batch_jobs))))
    = Ok (Protocol.Fetch_batch (ids Protocol.max_batch_jobs)));
  check "oversized batch refused" true
    (is_bad
       (Protocol.request_of_json
          (reparse
             (Protocol.request_to_json
                (Protocol.Fetch_batch (ids (Protocol.max_batch_jobs + 1)))))));
  (* batch frames are v2: the same frame stamped v1 is refused *)
  let downgrade = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, v) -> if k = "v" then (k, Json.Int 1) else (k, v))
             fields)
    | j -> j
  in
  check "v1 fetch_batch refused" true
    (is_bad
       (Protocol.request_of_json
          (downgrade (reparse (Protocol.request_to_json (Protocol.Fetch_batch [ 1 ]))))));
  check "v1 submit_batch refused" true
    (is_bad
       (Protocol.request_of_json
          (downgrade
             (reparse
                (Protocol.request_to_json
                   (Protocol.Submit_batch
                      [ Protocol.submission (Protocol.Bench "nbody") ]))))));
  (* a truncated batch item (report without data) is refused *)
  let truncated =
    Json.Obj
      [
        ("v", Json.Int 2);
        ("type", Json.String "results_batch");
        ( "items",
          Json.List
            [
              Json.Obj
                [
                  ( "job",
                    match
                      Protocol.response_to_json (Protocol.Status sample_view)
                    with
                    | Json.Obj fields -> List.assoc "job" fields
                    | _ -> Json.Null );
                  ("report", Json.String "orphan report");
                ];
            ] );
      ]
  in
  check "report-without-data refused" true
    (is_bad (Protocol.response_of_json (reparse truncated)))

(* --- request ids and svc_trace (protocol v3) ----------------------- *)

let test_protocol_v3_trace_frames () =
  let reparse j = Json.parse (Json.to_string j) in
  let is_bad = function Error (Protocol.Bad_request _) -> true | _ -> false in
  let restamp v = function
    | Json.Obj fields ->
        Json.Obj
          (List.map
             (fun (k, x) -> if k = "v" then (k, Json.Int v) else (k, x))
             fields)
    | j -> j
  in
  (* svc_trace round-trips for both rings *)
  List.iter
    (fun slow ->
      let req = Protocol.Svc_trace { slow } in
      check "svc_trace round-trips" true
        (Protocol.request_of_json (reparse (Protocol.request_to_json req))
        = Ok req))
    [ true; false ];
  (* the traces response round-trips its payload verbatim *)
  let resp =
    Protocol.Traces
      (Json.List
         [ Json.Obj [ ("request_id", Json.String "c-1"); ("seq", Json.Int 0) ] ])
  in
  check "traces round-trips" true
    (Protocol.response_of_json (reparse (Protocol.response_to_json resp))
    = Ok resp);
  (* submissions carry the request id end to end *)
  let req =
    Protocol.Submit_flow
      (Protocol.submission ~request_id:"c-beef-0" (Protocol.Bench "nbody"))
  in
  check "submission request_id round-trips" true
    (Protocol.request_of_json (reparse (Protocol.request_to_json req)) = Ok req);
  (* v3-only frames are refused when stamped v2 *)
  check "v2 svc_trace refused" true
    (is_bad
       (Protocol.request_of_json
          (restamp 2
             (reparse
                (Protocol.request_to_json (Protocol.Svc_trace { slow = false }))))));
  check "v2 submission with request_id refused" true
    (is_bad (Protocol.request_of_json (restamp 2 (reparse (Protocol.request_to_json req)))));
  (* a pre-v3 peer without request ids still speaks to us *)
  let old = Protocol.Submit_flow (Protocol.submission (Protocol.Bench "nbody")) in
  check "v2 plain submission accepted" true
    (Protocol.request_of_json (restamp 2 (reparse (Protocol.request_to_json old)))
    = Ok old);
  check "v1 plain submission accepted" true
    (Protocol.request_of_json (restamp 1 (reparse (Protocol.request_to_json old)))
    = Ok old)

(* --- framing ------------------------------------------------------- *)

let test_framing_roundtrip () =
  List.iter
    (fun payload ->
      let framed = Protocol.frame payload in
      match Protocol.unframe framed with
      | Some (got, consumed) ->
          check_str "payload preserved" payload got;
          check_int "whole frame consumed" (String.length framed) consumed
      | None -> Alcotest.fail "unframe returned None")
    [ ""; "x"; {|{"v":1,"type":"metrics"}|}; String.make 100_000 'z' ];
  (* two frames back to back *)
  let both = Protocol.frame "first" ^ Protocol.frame "second" in
  let a, next = Option.get (Protocol.unframe both) in
  let b, fin = Option.get (Protocol.unframe ~pos:next both) in
  check_str "first frame" "first" a;
  check_str "second frame" "second" b;
  check "all consumed" true (fin = String.length both);
  check "clean EOF" true (Protocol.unframe ~pos:fin both = None)

let test_framing_errors () =
  let framed = Protocol.frame "hello framing" in
  let truncated = String.sub framed 0 (String.length framed - 3) in
  check "truncated body" true
    (match Protocol.unframe truncated with
    | exception Protocol.Frame_error Protocol.Truncated -> true
    | _ -> false);
  check "truncated header" true
    (match Protocol.unframe (String.sub framed 0 2) with
    | exception Protocol.Frame_error Protocol.Truncated -> true
    | _ -> false);
  (* header declaring more than max_frame_bytes *)
  let huge = Bytes.create 4 in
  Bytes.set_int32_be huge 0 (Int32.of_int (Protocol.max_frame_bytes + 1));
  check "oversized declaration" true
    (match Protocol.unframe (Bytes.to_string huge ^ "xx") with
    | exception Protocol.Frame_error (Protocol.Oversized _) -> true
    | _ -> false);
  check "oversized payload refused on encode" true
    (match Protocol.frame (String.make (Protocol.max_frame_bytes + 1) 'a') with
    | exception Protocol.Frame_error (Protocol.Oversized _) -> true
    | _ -> false)

let test_framing_fd () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Protocol.conn a and cb = Protocol.conn b in
  let write_raw s = ignore (Unix.write_substring a s 0 (String.length s)) in
  Protocol.send ca (Json.String "over the wire");
  Protocol.send ca (Json.Obj []);
  check "fd frame 1" true
    (Protocol.recv cb = Some (Ok (Json.String "over the wire")));
  check "fd frame 2" true (Protocol.recv cb = Some (Ok (Json.Obj [])));
  (* [frame]'s wire form is what [recv] reads; a payload that is not
     JSON is a typed decode error, not an exception *)
  write_raw (Protocol.frame "[1,2]");
  check "framed by [frame]" true
    (Protocol.recv cb = Some (Ok (Json.List [ Json.Int 1; Json.Int 2 ])));
  write_raw (Protocol.frame "{oops");
  check "bad payload" true
    (match Protocol.recv cb with Some (Error _) -> true | _ -> false);
  (* a truncated write: header promising 100 bytes, then EOF *)
  let hdr = Bytes.create 4 in
  Bytes.set_int32_be hdr 0 100l;
  ignore (Unix.write a hdr 0 4);
  Unix.close a;
  check "fd truncation detected" true
    (match Protocol.recv cb with
    | exception Protocol.Frame_error Protocol.Truncated -> true
    | _ -> false);
  Unix.close b

(* Frames through per-connection buffers: a large frame grows them and
   a later small one still decodes exactly; an oversized payload is
   refused before a byte is written; a frame past the buffers' keep size
   round-trips too. *)
let test_conn_frames () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let ca = Protocol.conn a and cb = Protocol.conn b in
  (* the writer runs on its own thread: a frame larger than the socket
     buffer blocks until the reader drains it *)
  let through write read x =
    let w = Thread.create (fun () -> write x) () in
    let got = read () in
    Thread.join w;
    got = Some (Ok x)
  in
  let roundtrip_request r =
    check "request through conn" true
      (through (Protocol.write_request ca) (fun () -> Protocol.read_request cb) r)
  in
  let roundtrip_response r =
    check "response through conn" true
      (through (Protocol.write_response cb)
         (fun () -> Protocol.read_response ca)
         r)
  in
  let big_src = String.concat "\n" (List.init 2000 (fun i -> Printf.sprintf "x%d = \"%d\";" i i)) in
  List.iter roundtrip_request
    (sample_requests
    @ [
        Protocol.Submit_flow (Protocol.submission (Protocol.Inline big_src));
        Protocol.Job_status 1;
      ]);
  List.iter roundtrip_response sample_responses;
  (* a frame beyond the keep size (1 MiB): buffers shrink afterwards *)
  let huge = String.make (1 lsl 21) 'h' ^ "\n\"" in
  roundtrip_response (Protocol.Metrics_data (Json.String huge));
  roundtrip_request Protocol.Metrics;
  check "oversized payload refused on send" true
    (match
       Protocol.send ca
         (Json.String (String.make (Protocol.max_frame_bytes + 1) 'a'))
     with
    | exception Protocol.Frame_error (Protocol.Oversized _) -> true
    | _ -> false);
  (* nothing of the refused frame reached the peer *)
  Unix.close a;
  check "nothing written before the size check" true
    (Protocol.read_request cb = None);
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

let test_store_dedup_key () =
  let k ?(source = "int main() { return 0; }") ?(mode = "informed")
      ?(strategy = "fig3") ?(x = 2.0) ?budget ?(workload = "inline") () =
    Store.key ~source_digest:(Digest.string source) ~mode ~strategy
      ~x_threshold:x ~budget ~workload
  in
  check "same inputs same key" true (k () = k ());
  check "source changes key" true (k () <> k ~source:"int main() { return 1; }" ());
  check "mode changes key" true (k () <> k ~mode:"uninformed" ());
  check "strategy changes key" true (k () <> k ~strategy:"model_perf" ());
  check "x changes key" true (k () <> k ~x:4.0 ());
  check "budget changes key" true (k () <> k ~budget:1.0 ());
  check "workload changes key" true (k () <> k ~workload:"bench;profile=8" ())

let store_length = Flow_memo.Cache.length
let store_stats = Flow_memo.Cache.stats

let test_store_lru () =
  (* one shard: the LRU order assertions need a single eviction clock *)
  let s = Store.create ~shards:1 ~capacity:2 () in
  Store.add s "k1" 1;
  Store.add s "k2" 2;
  check "k1 present" true (Store.find s "k1" = Some 1);
  (* k1 is now most recently used; adding k3 must evict k2 *)
  Store.add s "k3" 3;
  check_int "capacity bound" 2 (store_length s);
  check "k2 evicted" true (Store.find s "k2" = None);
  check "k1 survived" true (Store.find s "k1" = Some 1);
  check "k3 present" true (Store.find s "k3" = Some 3);
  let st = store_stats s in
  check_int "hits" 3 st.hits;
  check_int "misses" 1 st.misses;
  check_int "evictions" 1 st.evictions;
  (* re-adding an existing key replaces without growing *)
  Store.add s "k3" 33;
  check_int "no growth on replace" 2 (store_length s);
  check "replaced" true (Store.find s "k3" = Some 33)

(* hex keys shaped like real store digests *)
let digest_key i = Digest.to_hex (Digest.string (Printf.sprintf "key-%d" i))

(* Lock striping is invisible through the store's API: any shard count
   keeps the capacity bound and serves the same values. *)
let test_store_sharding () =
  List.iter
    (fun shards ->
      let s = Store.create ~shards ~capacity:64 () in
      for i = 0 to 199 do
        Store.add s (digest_key i) i
      done;
      let st = store_stats s in
      check "within capacity" true (store_length s <= 64);
      check_int "adds = length + evictions" 200
        (store_length s + st.evictions);
      (* the newest key always survives *)
      check "newest resident" true (Store.find s (digest_key 199) = Some 199))
    [ 1; 4; 8 ];
  (* more shards than capacity: clamped, so the bound still holds *)
  let small = Store.create ~shards:8 ~capacity:3 () in
  for i = 0 to 9 do
    Store.add small (digest_key i) i
  done;
  check "shards clamped to capacity" true (store_length small <= 3)

(* Domain-based hammer: concurrent adds and finds on overlapping digests
   must lose no updates, stay within capacity, and account every find
   as exactly one hit or miss and every add of a new key as residency
   or an eviction. *)
let test_store_hammer () =
  let domains = 4 in
  let keys_per = 64 in
  let total_keys = domains * keys_per in
  (* phase 1: capacity well above the distinct keys, so nothing evicts
     and every write must be readable afterwards *)
  let s = Store.create ~shards:4 ~capacity:(2 * total_keys) () in
  let value_of k = Hashtbl.hash k in
  let finds = Atomic.make 0 in
  let hammer d =
    (* overlapping ranges: domain d touches [d*32, d*32 + keys_per) so
       neighbours contend on the same digests *)
    let base = d * (keys_per / 2) in
    for round = 0 to 9 do
      for i = base to base + keys_per - 1 do
        let k = digest_key (i mod total_keys) in
        if (i + round) mod 3 = 0 then Store.add s k (value_of k)
        else begin
          Atomic.incr finds;
          ignore (Store.find s k)
        end
      done
    done
  in
  let ds = Array.init domains (fun d -> Domain.spawn (fun () -> hammer d)) in
  Array.iter Domain.join ds;
  let during = store_stats s in
  check_int "every find is one hit or miss" (Atomic.get finds)
    (during.hits + during.misses);
  check_int "phase1 no evictions" 0 during.evictions;
  (* no lost updates: every key some domain added reads back its value *)
  let written = ref 0 in
  for i = 0 to total_keys - 1 do
    let k = digest_key i in
    match Store.find s k with
    | Some v ->
        incr written;
        check "no torn value" true (v = value_of k)
    | None -> ()
  done;
  check_int "every written key retained" !written (store_length s);
  check "most keys written and retained" true (!written > 0);
  (* phase 2: capacity far below the key population; every add of a new
     key either stays resident or evicts one, and length never exceeds
     the bound *)
  let small = Store.create ~shards:4 ~capacity:32 () in
  let flood d =
    for i = d * 200 to (d * 200) + 199 do
      Store.add small (digest_key (100_000 + i)) i
    done
  in
  let ds = Array.init domains (fun d -> Domain.spawn (fun () -> flood d)) in
  Array.iter Domain.join ds;
  check "phase2 within bound" true (store_length small <= 32);
  check_int "phase2 adds conserved" (domains * 200)
    (store_length small + (store_stats small).evictions)

(* ------------------------------------------------------------------ *)
(* Scheduler                                                           *)
(* ------------------------------------------------------------------ *)

let dummy_result tag =
  { Protocol.report = tag; data = Json.Obj [ ("tag", Json.String tag) ] }

let wait_until ?(timeout_s = 10.0) pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then true
    else if Unix.gettimeofday () > deadline then false
    else (
      Thread.delay 0.01;
      go ())
  in
  go ()

let test_scheduler_dedup () =
  let metrics = Metrics.create () in
  let sched = Scheduler.create ~workers:1 ~queue_capacity:8 ~metrics () in
  let executions = Atomic.make 0 in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let submit () =
    Scheduler.submit sched ~key:"K" ~label:"t" ~mode:Protocol.Informed
      ~strategy:Protocol.Fig3 ~request_id:"rq-dedup" (fun () ->
        Mutex.lock gate;
        Mutex.unlock gate;
        Atomic.incr executions;
        dummy_result "ran")
  in
  let id1, d1 = Result.get_ok (submit ()) in
  (* the job is blocked on [gate]: an identical submission coalesces *)
  let id2, d2 = Result.get_ok (submit ()) in
  check "first is fresh" true (d1 = `Fresh);
  check "second coalesces" true (d2 = `Coalesced);
  check_int "same job" id1 id2;
  Mutex.unlock gate;
  check "job completes" true
    (wait_until (fun () ->
         match Scheduler.status sched id1 with
         | Some { state = Protocol.Done; _ } -> true
         | _ -> false));
  check_int "exactly one execution" 1 (Atomic.get executions);
  (* done and stored: a third identical submission is a store hit *)
  let id3, d3 = Result.get_ok (submit ()) in
  check "third is cached" true (d3 = `Cached);
  check "fresh job id for cached submission" true (id3 <> id1);
  (match Scheduler.result sched id3 with
  | Some (view, Some r) ->
      check "cached flag" true view.Protocol.cached;
      check_str "cached payload" "ran" r.Protocol.report
  | _ -> Alcotest.fail "cached job has no result");
  check_int "still one execution" 1 (Atomic.get executions);
  Scheduler.shutdown sched

let test_scheduler_backpressure () =
  let metrics = Metrics.create () in
  let sched = Scheduler.create ~workers:1 ~queue_capacity:1 ~metrics () in
  let gate = Mutex.create () in
  Mutex.lock gate;
  let submit key =
    Scheduler.submit sched ~key ~label:key ~mode:Protocol.Informed
      ~strategy:Protocol.Fig3 ~request_id:"rq-bp" (fun () ->
        Mutex.lock gate;
        Mutex.unlock gate;
        dummy_result key)
  in
  let id1, _ = Result.get_ok (submit "A") in
  (* wait for A to be picked up so the queue is empty again *)
  check "A running" true
    (wait_until (fun () ->
         match Scheduler.status sched id1 with
         | Some { state = Protocol.Running; _ } -> true
         | _ -> false));
  let _ = Result.get_ok (submit "B") in
  check "queue full is backpressure" true (submit "C" = Error `Queue_full);
  Mutex.unlock gate;
  (* graceful drain: B still completes *)
  Scheduler.shutdown sched;
  let all_done =
    List.for_all
      (fun (v : Protocol.job_view) -> v.state = Protocol.Done)
      (Scheduler.list sched)
  in
  check "drained: every accepted job finished" true all_done;
  check "rejected after shutdown" true (submit "D" = Error `Shutting_down)

let test_scheduler_failure () =
  let metrics = Metrics.create () in
  let sched = Scheduler.create ~workers:1 ~queue_capacity:4 ~metrics () in
  let id, _ =
    Result.get_ok
      (Scheduler.submit sched ~key:"F" ~label:"f" ~mode:Protocol.Informed
         ~strategy:Protocol.Fig3 ~request_id:"rq-f1" (fun () ->
           failwith "deliberate"))
  in
  check "failure recorded" true
    (wait_until (fun () ->
         match Scheduler.status sched id with
         | Some { state = Protocol.Failed msg; _ } -> contains msg "deliberate"
         | _ -> false));
  (* a failed job must not be served from the store *)
  let _, d =
    Result.get_ok
      (Scheduler.submit sched ~key:"F" ~label:"f" ~mode:Protocol.Informed
         ~strategy:Protocol.Fig3 ~request_id:"rq-f2" (fun () ->
           dummy_result "ok"))
  in
  check "failed result not cached" true (d = `Fresh);
  Scheduler.shutdown sched;
  check_int "jobs_failed counted" 1 (Metrics.counter_value metrics "jobs_failed")

(* A job's bytes are a function of its submission, not of the daemon's
   history: a scheduler that has already run other inline jobs and a
   fresh scheduler over emptied process caches (what a new daemon
   process starts with) serve identical report and data bytes. *)
let inline_kernel k =
  Printf.sprintf
    "int main() {\n\
    \  double a[%d];\n\
    \  double b[%d];\n\
    \  for (int i = 0; i < %d; i++) { b[i] = a[i] * %d.0 + 1.0; }\n\
    \  return 0;\n\
     }"
    (8 * k) (8 * k) (8 * k) k

let scheduled_bytes sched src =
  let sub = Protocol.submission (Protocol.Inline src) in
  match Flow_exec.resolve sub with
  | Error _ -> Alcotest.fail "inline submission rejected"
  | Ok { Flow_exec.key; label; run } -> (
      let id, _ =
        Result.get_ok
          (Scheduler.submit sched ~key ~label ~mode:sub.mode
             ~strategy:sub.strategy ~request_id:"rq-identity"
             (run ~request_id:None))
      in
      check "job completes" true
        (wait_until (fun () ->
             match Scheduler.status sched id with
             | Some { state = Protocol.Done; _ } -> true
             | _ -> false));
      match Scheduler.result sched id with
      | Some (_, Some r) -> (r.Protocol.report, Json.to_string r.Protocol.data)
      | _ -> Alcotest.fail "finished job has no result")

let test_daemon_identity () =
  let target = inline_kernel 3 in
  let scheduler () =
    Scheduler.create ~workers:1 ~queue_capacity:8 ~metrics:(Metrics.create ()) ()
  in
  let used = scheduler () in
  List.iter
    (fun k -> ignore (scheduled_bytes used (inline_kernel k)))
    [ 5; 7; 2 ];
  let report, data = scheduled_bytes used target in
  Scheduler.shutdown used;
  Psa.Stage_memo.clear ();
  Flow_memo.Cache.clear Analysis.Features.memo;
  Dse.Sweep_memo.clear ();
  Minic_interp.Profile_cache.clear ();
  let fresh = scheduler () in
  let report', data' = scheduled_bytes fresh target in
  Scheduler.shutdown fresh;
  check "has the hotspot log line" true (contains data "hotspot: loop #");
  check_str "identical report" report report';
  check_str "identical data" data data'

(* Finished jobs are bounded; queued and running jobs never pruned.  A
   cached submission finishes on submit, so duplicates of one stored
   key fill the finished table without running anything. *)
let test_scheduler_prunes_finished () =
  let metrics = Metrics.create () in
  let sched = Scheduler.create ~workers:1 ~queue_capacity:4 ~metrics () in
  let submit ?(run = fun () -> dummy_result "ok") key =
    Result.get_ok
      (Scheduler.submit sched ~key ~label:key ~mode:Protocol.Informed
         ~strategy:Protocol.Fig3 ~request_id:"rq-prune" run)
  in
  let in_state id st () =
    match Scheduler.status sched id with
    | Some v -> v.Protocol.state = st
    | None -> false
  in
  let first, _ = submit "A" in
  check "A done" true (wait_until (in_state first Protocol.Done));
  let gate = Mutex.create () in
  Mutex.lock gate;
  let running, _ =
    submit "B" ~run:(fun () ->
        Mutex.lock gate;
        Mutex.unlock gate;
        dummy_result "B")
  in
  check "B running" true (wait_until (in_state running Protocol.Running));
  let queued, _ = submit "Q" in
  let n = 3 in
  let cached =
    List.init (Scheduler.max_finished + n - 1) (fun _ ->
        let id, d = submit "A" in
        if d <> `Cached then Alcotest.fail "duplicate should be a store hit";
        id)
  in
  let pruned = first :: List.filteri (fun i _ -> i < n - 1) cached in
  List.iter
    (fun id ->
      check (Printf.sprintf "job #%d pruned" id) true
        (Scheduler.status sched id = None && Scheduler.result sched id = None))
    pruned;
  check "oldest survivor kept" true
    (Scheduler.status sched (List.nth cached (n - 1)) <> None);
  check "running job kept" true (in_state running Protocol.Running ());
  check "queued job kept" true (in_state queued Protocol.Queued ());
  Mutex.unlock gate;
  check "queued job completes" true
    (wait_until (in_state queued Protocol.Done));
  Scheduler.shutdown sched

(* ------------------------------------------------------------------ *)
(* Request-trace capture (Req_trace)                                   *)
(* ------------------------------------------------------------------ *)

let test_req_trace_sampling () =
  (* sample every 2nd execution; slow threshold unreachably high *)
  let t = Req_trace.create ~sample:2 ~slow_ms:1e12 () in
  for i = 0 to 3 do
    Req_trace.record t
      ~request_id:(Printf.sprintf "r%d" i)
      ~job_id:i ~label:"x"
      (fun () -> ())
  done;
  let executed, retained, retained_slow = Req_trace.stats t in
  check_int "all executions counted" 4 executed;
  check_int "every 2nd retained (incl. the first)" 2 retained;
  check_int "nothing slow" 0 retained_slow;
  check "slow ring empty" true (Req_trace.to_json ~slow:true t = Json.List []);
  match Req_trace.to_json t with
  | Json.List [ newest; oldest ] ->
      check "newest first" true
        (Json.member "request_id" newest = Some (Json.String "r2"));
      check "first execution always sampled" true
        (Json.member "request_id" oldest = Some (Json.String "r0"));
      check "sampled flag set" true
        (Json.member "sampled" newest = Some (Json.Bool true))
  | j -> Alcotest.failf "unexpected sampled ring: %s" (Json.to_string j)

let test_req_trace_slow_exemplars () =
  (* sampling effectively off (1 in 1000), slow threshold 0 ms: every
     execution is a slow exemplar, only the first is sampled *)
  let t = Req_trace.create ~sample:1000 ~slow_ms:0.0 () in
  Req_trace.record t ~request_id:"s0" ~job_id:1 ~label:"x" (fun () -> ());
  Req_trace.record t ~request_id:"s1" ~job_id:2 ~label:"x" (fun () -> ());
  let _, retained, retained_slow = Req_trace.stats t in
  check_int "only seq 0 sampled" 1 retained;
  check_int "both slow" 2 retained_slow;
  (match Req_trace.to_json ~slow:true t with
  | Json.List l -> check_int "slow ring holds both" 2 (List.length l)
  | _ -> Alcotest.fail "slow ring not a list");
  (* a raising job still closes its recording and counts as executed *)
  (try
     Req_trace.record t ~request_id:"s2" ~job_id:3 ~label:"x" (fun () ->
         failwith "deliberate")
   with Failure _ -> ());
  let executed, _, retained_slow = Req_trace.stats t in
  check_int "raised execution counted" 3 executed;
  check_int "raised execution still retained as slow" 3 retained_slow

let test_req_trace_ring_capacity () =
  let t = Req_trace.create ~capacity:2 ~sample:1 ~slow_ms:1e12 () in
  for i = 0 to 4 do
    Req_trace.record t
      ~request_id:(Printf.sprintf "r%d" i)
      ~job_id:i ~label:"x"
      (fun () -> ())
  done;
  let _, retained, _ = Req_trace.stats t in
  check_int "retained counter counts all" 5 retained;
  match Req_trace.to_json t with
  | Json.List [ a; b ] ->
      check "ring keeps the newest two" true
        (Json.member "request_id" a = Some (Json.String "r4")
        && Json.member "request_id" b = Some (Json.String "r3"))
  | j -> Alcotest.failf "unexpected ring: %s" (Json.to_string j)

(* ------------------------------------------------------------------ *)
(* Traced jobs                                                         *)
(* ------------------------------------------------------------------ *)

let job_data ~trace src =
  match Flow_exec.resolve (Protocol.submission ~trace (Protocol.Inline src)) with
  | Ok r -> (r.Flow_exec.run ~request_id:None ()).Protocol.data
  | Error e -> Alcotest.fail (Protocol.error_message e)

let trace_events data =
  match Option.bind (Json.member "trace" data) (Json.member "traceEvents") with
  | Some (Json.List evs) -> evs
  | _ -> Alcotest.fail "traced job has no embedded trace document"

(* A traced job records its own thread only: spans another domain emits
   meanwhile stay out of its embedded trace. *)
let test_traced_job_own_thread () =
  let stop = Atomic.make false and started = Atomic.make false in
  let noisy =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Flow_obs.Trace.with_span ~cat:"noise" "other domain" (fun () ->
              Atomic.set started true)
        done)
  in
  let data =
    Fun.protect
      ~finally:(fun () ->
        Atomic.set stop true;
        Domain.join noisy)
      (fun () ->
        while not (Atomic.get started) do
          Domain.cpu_relax ()
        done;
        job_data ~trace:true (inline_kernel 13))
  in
  let tids =
    List.sort_uniq compare
      (List.map (fun ev -> Json.member "tid" ev) (trace_events data))
  in
  check_int "one tid in the embedded trace" 1 (List.length tids)

(* Tracing adds the [trace] field and changes nothing else. *)
let test_traced_data_matches_untraced () =
  let src = inline_kernel 14 in
  let plain = job_data ~trace:false src in
  let traced = job_data ~trace:true src in
  check "traced job carries events" true (trace_events traced <> []);
  let without_trace = function
    | Json.Obj fields -> Json.Obj (List.remove_assoc "trace" fields)
    | j -> j
  in
  check_str "traced data minus trace = untraced data" (Json.to_string plain)
    (Json.to_string (without_trace traced))

(* ------------------------------------------------------------------ *)
(* Perf history: JSONL store and rolling-median gate                   *)
(* ------------------------------------------------------------------ *)

let test_perf_history_median () =
  check "odd length" true (Perf_history.median [ 3.0; 1.0; 2.0 ] = Some 2.0);
  check "even length averages the middle pair" true
    (Perf_history.median [ 4.0; 1.0; 2.0; 3.0 ] = Some 2.5);
  check "singleton" true (Perf_history.median [ 7.0 ] = Some 7.0);
  check "empty" true (Perf_history.median [] = None)

let test_perf_history_file_roundtrip () =
  let path = Filename.temp_file "psaflow-history" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  check "missing file is an empty history" true
    (Perf_history.load ~path:(path ^ ".does-not-exist") = []);
  let dp i =
    {
      Perf_history.commit = Printf.sprintf "c%d" i;
      time = float_of_int i;
      quick = i mod 2 = 0;
      metrics = [ ("m", float_of_int (10 + i)); ("n", 0.5) ];
    }
  in
  List.iter (fun i -> Perf_history.append ~path (dp i)) [ 0; 1; 2 ];
  (* corrupt and alien lines are skipped, never fatal *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "not json at all\n{\"commit\": 42}\n";
  close_out oc;
  let loaded = Perf_history.load ~path in
  check_int "three entries survive the corrupt lines" 3 (List.length loaded);
  check "oldest first, fields intact" true
    (match loaded with
    | first :: _ ->
        first.Perf_history.commit = "c0"
        && first.Perf_history.quick
        && List.assoc_opt "m" first.Perf_history.metrics = Some 10.0
    | [] -> false)

let test_perf_history_gate () =
  let dp commit v =
    { Perf_history.commit; time = 0.0; quick = true; metrics = [ ("rps", v) ] }
  in
  let history = [ dp "a" 100.0; dp "b" 110.0; dp "c" 90.0 ] in
  let gate ?exclude_commit ?(quick = true) ~direction ~factor v =
    Perf_history.gate ?exclude_commit ~history ~quick ~metric:"rps" ~direction
      ~factor v
  in
  (match gate ~direction:Perf_history.Higher_better ~factor:0.7 95.0 with
  | Perf_history.Pass { median; used; _ } ->
      check "median of the window" true (median = 100.0);
      check_int "all three entries used" 3 used
  | _ -> Alcotest.fail "expected Pass");
  (match gate ~direction:Perf_history.Higher_better ~factor:0.7 50.0 with
  | Perf_history.Fail _ -> ()
  | _ -> Alcotest.fail "expected Fail below 70% of median");
  (match gate ~direction:Perf_history.Lower_better ~factor:4.0 500.0 with
  | Perf_history.Fail _ -> ()
  | _ -> Alcotest.fail "expected Fail above 4x median");
  (match gate ~direction:Perf_history.Lower_better ~factor:4.0 150.0 with
  | Perf_history.Pass _ -> ()
  | _ -> Alcotest.fail "expected Pass within 4x median");
  (* excluding the gating commit leaves 2 comparable entries -> Skip *)
  (match
     gate ~exclude_commit:"c" ~direction:Perf_history.Higher_better ~factor:0.7
       95.0
   with
  | Perf_history.Skip _ -> ()
  | _ -> Alcotest.fail "expected Skip when < 3 comparable entries");
  (* quick history never gates a full run *)
  (match
     gate ~quick:false ~direction:Perf_history.Higher_better ~factor:0.7 95.0
   with
  | Perf_history.Skip _ -> ()
  | _ -> Alcotest.fail "expected Skip across scales");
  (* an absent metric is a Skip, not a crash *)
  (match
     Perf_history.gate ~history ~quick:true ~metric:"nope"
       ~direction:Perf_history.Higher_better ~factor:0.7 1.0
   with
  | Perf_history.Skip _ -> ()
  | _ -> Alcotest.fail "expected Skip for unknown metric");
  (* the rolling window really rolls: old glory days fall out of K *)
  let history7 =
    List.mapi
      (fun i v -> dp (string_of_int i) v)
      [ 1000.0; 1000.0; 1000.0; 10.0; 10.0; 10.0; 10.0 ]
  in
  match
    Perf_history.gate ~k:4 ~history:history7 ~quick:true ~metric:"rps"
      ~direction:Perf_history.Higher_better ~factor:0.7 9.0
  with
  | Perf_history.Pass { median; _ } ->
      check "window medians only the recent entries" true (median = 10.0)
  | _ -> Alcotest.fail "expected Pass against the rolled window"

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_metrics_registry () =
  let m = Metrics.create () in
  Metrics.incr m "reqs";
  Metrics.incr ~by:2 m "reqs";
  Metrics.set_gauge m "depth" 3.0;
  List.iter (fun v -> Metrics.observe m "lat" v) [ 0.1; 0.2; 0.3; 0.4 ];
  let j = Metrics.to_json ~extra:[ ("extra", Json.Int 7) ] m in
  (* must survive its own wire encoding *)
  let j = Json.parse (Json.to_string j) in
  check "counter" true (Json.member "reqs" j = Some (Json.Int 3));
  check "gauge" true (Json.member "depth" j = Some (Json.Float 3.0));
  check "extra field" true (Json.member "extra" j = Some (Json.Int 7));
  (match Json.member "lat" j with
  | Some hist ->
      check "hist count" true (Json.member "count" hist = Some (Json.Int 4));
      check "hist p50" true
        (match Option.bind (Json.member "p50" hist) Json.to_float_opt with
        | Some p -> p >= 0.1 && p <= 0.4
        | None -> false)
  | None -> Alcotest.fail "no histogram in metrics json")

(* ------------------------------------------------------------------ *)
(* End-to-end: daemon on a loopback socket vs direct Std_flow          *)
(* ------------------------------------------------------------------ *)

let with_daemon ?(config = { (Server.default_config ()) with workers = 2;
                              queue_capacity = 16; store_capacity = 32 }) f =
  let path = Filename.temp_file "psaflow-test" ".sock" in
  Sys.remove path;
  let addr = Protocol.Unix_path path in
  let server = Thread.create (fun () -> Server.serve ~config addr) () in
  (* wait for the socket to accept connections *)
  let ready =
    wait_until (fun () ->
        match Client.connect addr with
        | c ->
            Client.close c;
            true
        | exception Client.Client_error _ -> false)
  in
  if not ready then Alcotest.fail "daemon did not come up";
  Fun.protect
    ~finally:(fun () ->
      (* under a connection cap, a just-closed connection's handler may
         still hold the last slot: a [Server_busy] answer means the
         shutdown was not delivered, so send it again *)
      ignore
        (wait_until (fun () ->
             match Client.rpc addr Protocol.Shutdown with
             | Protocol.Error Protocol.Server_busy -> false
             | _ | (exception _) -> true));
      Thread.join server)
    (fun () -> f addr)

let direct_report (app : Benchmarks.Bench_app.t) =
  let ctx = Benchmarks.Bench_app.context ~x_threshold:2.0 app in
  let outcome = Psa.Std_flow.run_informed ~x_threshold:2.0 ctx in
  Flow_exec.render_report outcome.results

(* The bytes of test/golden/<name>.expected. *)
let golden name =
  In_channel.with_open_bin
    (Filename.concat "golden" (name ^ ".expected"))
    In_channel.input_all

(* A [psaflow run] golden minus its "running ... PSA-flow on ..." header
   line: what the daemon serves. *)
let golden_report name =
  let text = golden name in
  let body = String.index text '\n' + 1 in
  String.sub text body (String.length text - body)

let test_end_to_end () =
  with_daemon (fun addr ->
      (* submit all five paper benchmarks, plus one uninformed flow,
         and poll to completion *)
      let submit ?mode (app : Benchmarks.Bench_app.t) =
        match
          Client.rpc addr
            (Protocol.Submit_flow
               (Protocol.submission ?mode (Protocol.Bench app.id)))
        with
        | Protocol.Submitted { job_id; disposition = `Fresh } -> job_id
        | other ->
            Alcotest.failf "unexpected submit response for %s: %s" app.id
              (Json.to_string (Protocol.response_to_json other))
      in
      let ids =
        List.map (fun app -> (app, submit app)) Benchmarks.Registry.all
      in
      let uninformed_app = Benchmarks.Registry.find "nbody" in
      let uninformed_id = submit ~mode:Protocol.Uninformed uninformed_app in
      let wait job_id =
        match Client.wait_result addr job_id with
        | Ok (view, r) ->
            check "job done" true (view.Protocol.state = Protocol.Done);
            check "not cached" true (not view.Protocol.cached);
            check "structured data has designs" true
              (match Json.member "designs" r.Protocol.data with
              | Some (Json.List (_ :: _)) -> true
              | _ -> false);
            r
        | Error e -> Alcotest.fail e
      in
      List.iter
        (fun ((app : Benchmarks.Bench_app.t), job_id) ->
          let { Protocol.report; data } = wait job_id in
          (* the service report must be bit-identical to a direct run and
             to the committed `psaflow run` golden *)
          check_str
            (app.id ^ " service report = direct run")
            (direct_report app) report;
          check_str
            (app.id ^ " service report = run golden")
            (golden_report ("run_" ^ app.id))
            report;
          (* the served structured data is pinned byte for byte too *)
          check_str
            (app.id ^ " service data = data golden")
            (golden ("data_" ^ app.id))
            (Json.to_string data))
        ids;
      check_str
        (uninformed_app.id ^ " uninformed service report = run golden")
        (golden_report ("run_uninformed_" ^ uninformed_app.id))
        (wait uninformed_id).Protocol.report;
      (* duplicate submission: served from the store, no execution *)
      let app0 = List.hd Benchmarks.Registry.all in
      (match
         Client.rpc addr
           (Protocol.Submit_flow (Protocol.submission (Protocol.Bench app0.id)))
       with
      | Protocol.Submitted { job_id; disposition = `Cached } -> (
          match Client.rpc addr (Protocol.Fetch_result job_id) with
          | Protocol.Result (view, r) ->
              check "cached job flagged" true view.Protocol.cached;
              check_str "cached report identical" (direct_report app0)
                r.Protocol.report
          | other ->
              Alcotest.failf "cached fetch: %s"
                (Json.to_string (Protocol.response_to_json other)))
      | other ->
          Alcotest.failf "duplicate submit: %s"
            (Json.to_string (Protocol.response_to_json other)));
      (* typed errors over the wire *)
      (match
         Client.rpc addr
           (Protocol.Submit_flow (Protocol.submission (Protocol.Bench "wat")))
       with
      | Protocol.Error (Protocol.Unknown_benchmark "wat") -> ()
      | _ -> Alcotest.fail "expected unknown_benchmark");
      (match
         Client.rpc addr
           (Protocol.Submit_flow
              (Protocol.submission (Protocol.Inline "int main( {")))
       with
      | Protocol.Error (Protocol.Minic_parse_error _) -> ()
      | _ -> Alcotest.fail "expected minic_parse_error");
      (match
         Client.rpc addr
           (Protocol.Submit_flow
              (Protocol.submission
                 (Protocol.Inline "int main() { x = 1; return 0; }")))
       with
      | Protocol.Error (Protocol.Minic_type_error _) -> ()
      | _ -> Alcotest.fail "expected minic_type_error");
      (* metrics: well-formed JSON with the expected counters *)
      match Client.rpc addr Protocol.Metrics with
      | Protocol.Metrics_data m ->
          let m = Json.parse (Json.to_string m) in
          let counter name =
            Option.value ~default:(-1)
              (Option.bind (Json.member name m) Json.to_int_opt)
          in
          check_int "six executions" 6 (counter "jobs_completed");
          check "store hit recorded" true (counter "store_hits" >= 1);
          check "submissions counted" true (counter "requests_submit_flow" >= 7)
      | other ->
          Alcotest.failf "metrics: %s"
            (Json.to_string (Protocol.response_to_json other)))

(* The [explain] field served by the daemon must be exactly the decision
   provenance a direct in-process run records, and a traced submission
   must come back with an embedded Chrome trace document. *)
let test_explain_and_trace () =
  with_daemon (fun addr ->
      let app = List.nth Benchmarks.Registry.all 2 (* bezier: smallest *) in
      let direct_explain =
        let ctx = Benchmarks.Bench_app.context ~x_threshold:2.0 app in
        Flow_exec.decisions_json (Psa.Std_flow.run_informed ~x_threshold:2.0 ctx)
      in
      let submit ~trace =
        match
          Client.rpc addr
            (Protocol.Submit_flow
               (Protocol.submission ~trace (Protocol.Bench app.id)))
        with
        | Protocol.Submitted { job_id; _ } -> (
            match Client.wait_result addr job_id with
            | Ok (_, r) -> r.Protocol.data
            | Error e -> Alcotest.fail e)
        | other ->
            Alcotest.failf "submit: %s"
              (Json.to_string (Protocol.response_to_json other))
      in
      let plain = submit ~trace:false in
      (match Json.member "explain" plain with
      | Some served ->
          check "daemon explain = direct explain" true
            (Json.equal served direct_explain);
          check "explain is non-empty" true
            (match served with Json.List (_ :: _) -> true | _ -> false)
      | None -> Alcotest.fail "no explain field in job data");
      check "untraced job carries no trace" true
        (Json.member "trace" plain = None);
      (* tracing changes the store key: this is a fresh execution, not a
         cache hit on the untraced result *)
      let traced = submit ~trace:true in
      (match Json.member "explain" traced with
      | Some served ->
          check "traced job explain unchanged" true
            (Json.equal served direct_explain)
      | None -> Alcotest.fail "no explain field in traced job data");
      match Option.bind (Json.member "trace" traced) (Json.member "traceEvents") with
      | Some (Json.List events) ->
          check "trace has events" true (events <> []);
          check "trace covers the whole job" true
            (List.exists
               (fun ev ->
                 Json.member "cat" ev = Some (Json.String "service"))
               events);
          check "trace reaches the branch decisions" true
            (List.exists
               (fun ev ->
                 Json.member "cat" ev = Some (Json.String "branch"))
               events)
      | _ -> Alcotest.fail "traced job has no embedded trace document")

(* An extractable inline kernel (hotspot loop in main, array-writing
   body), cheap enough to run many of under `Quick *)
let inline_kernel tag =
  Printf.sprintf
    {|int main() {
  double a[64];
  double b[64];
  for (int i = 0; i < 64; i++) { b[i] = a[i] * 1.5 + %d.0; }
  return 0;
}|}
    tag

let test_batch_end_to_end () =
  with_daemon (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let subs =
        [
          Protocol.submission (Protocol.Inline (inline_kernel 1));
          Protocol.submission (Protocol.Inline (inline_kernel 2));
          (* duplicate of the first: must coalesce or hit the store *)
          Protocol.submission (Protocol.Inline (inline_kernel 1));
          (* poison in the middle must not void its neighbours *)
          Protocol.submission (Protocol.Inline "int main( {");
        ]
      in
      let items = Client.submit_batch c subs in
      check_int "item per submission" (List.length subs) (List.length items);
      let id_of i = match List.nth items i with
        | Ok (id, _) -> id
        | Error e -> Alcotest.failf "item %d: %s" i (Protocol.error_message e)
      in
      (match List.nth items 0 with
      | Ok (_, `Fresh) -> ()
      | _ -> Alcotest.fail "first kernel should be fresh");
      (match List.nth items 2 with
      | Ok (id, `Coalesced) ->
          (* an in-flight dedup rides the live job *)
          check_int "coalesced onto item 0" (id_of 0) id
      | Ok (_, `Cached) ->
          (* a store hit materializes as a new, already-Done job *)
          ()
      | _ -> Alcotest.fail "duplicate should coalesce or hit the store");
      (match List.nth items 3 with
      | Error (Protocol.Minic_parse_error _) -> ()
      | _ -> Alcotest.fail "poison item should fail alone");
      (* drain the two real jobs through fetch_batch *)
      let ids = [ id_of 0; id_of 1 ] in
      let ok =
        wait_until (fun () ->
            List.for_all
              (fun item ->
                match item with
                | Ok ({ Protocol.state = Protocol.Done; _ }, Some _) -> true
                | _ -> false)
              (Client.fetch_batch c ids))
      in
      check "batched jobs complete" true ok;
      (* fetched batch results equal the single-fetch results *)
      List.iter
        (fun id ->
          match (Client.fetch_batch c [ id ], Client.rpc addr (Protocol.Fetch_result id)) with
          | [ Ok (_, Some batch_r) ], Protocol.Result (_, single_r) ->
              check_str "batch = single fetch report" single_r.Protocol.report
                batch_r.Protocol.report;
              check "batch = single fetch data" true
                (Json.equal batch_r.Protocol.data single_r.Protocol.data)
          | _ -> Alcotest.fail "fetch mismatch")
        ids;
      (* unknown ids come back as per-item errors *)
      match Client.fetch_batch c [ 9999 ] with
      | [ Error (Protocol.Unknown_job 9999) ] -> ()
      | _ -> Alcotest.fail "expected per-item unknown_job")

(* The variant schedule's phase B (test_memo pins its sequential
   per-stage counts) as one submit_batch frame on two worker domains:
   every variant is a store miss, and every served result equals
   sequential memo-off execution byte for byte. *)
let test_variant_batch_through_daemon () =
  let reference = List.map Helpers.memo_off_bytes Helpers.variant_batch in
  let config =
    {
      (Server.default_config ()) with
      workers = 2;
      queue_capacity = 64;
      store_capacity = 64;
    }
  in
  with_daemon ~config (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let ids =
        List.mapi
          (fun i item ->
            match item with
            | Ok (id, `Fresh) -> id
            | Ok _ -> Alcotest.failf "variant %d was not a fresh job" i
            | Error e ->
                Alcotest.failf "variant %d: %s" i (Protocol.error_message e))
          (Client.submit_batch c Helpers.variant_batch)
      in
      let finished () =
        List.for_all
          (function
            | Ok ({ Protocol.state = Protocol.Done; _ }, Some _) -> true
            | _ -> false)
          (Client.fetch_batch c ids)
      in
      check "variant jobs complete" true (wait_until finished);
      List.iteri
        (fun i (item, (report, data)) ->
          match item with
          | Ok (_, Some (r : Protocol.job_result)) ->
              check_str (Printf.sprintf "variant %d report" i) report r.report;
              check_str (Printf.sprintf "variant %d data" i) data
                (Json.to_string r.data)
          | _ -> Alcotest.failf "variant %d: no result" i)
        (List.combine (Client.fetch_batch c ids) reference))

(* Mixed traffic over one connection, each submission awaited before the
   next: 8 hot kernels sent 3 times each, 10 cold kernels, the 3 poison
   sources twice each, then one 48-item submit_batch storm past the
   queue capacity.  Every disposition, rejection kind and counter delta
   is exact.  The one timing-dependent number, how many storm items the
   queue refused, is bounded by the storm invariants and enters the
   other counts by name.  Poll frames are counted as they are sent, so
   [requests_total] is exact too.  The kernel tags belong to this test
   alone, so the process-wide [interp_runs] starts cold for them
   whatever ran before. *)
let test_mixed_traffic () =
  let config =
    {
      (Server.default_config ()) with
      workers = 2;
      queue_capacity = 32;
      store_capacity = 512;
    }
  in
  let kernel tag =
    Protocol.submission (Protocol.Inline (Flow_load.Workload.kernel_source tag))
  in
  let hot = List.init 8 (fun i -> kernel (4_000_000 + i)) in
  let cold = List.init 10 (fun i -> kernel (4_100_000 + i)) in
  (* the storm's first two kernels repeat their loop 20,000 times
     (tens of ms each), so both workers stay busy while the handler
     enqueues the rest: the queue holds 32, so at least 48 - 32 - 2
     items are refused *)
  let busy_kernel tag =
    Protocol.submission
      (Protocol.Inline
         (Printf.sprintf
            {|int main() {
  double a[64];
  double b[64];
  for (int r = 0; r < 20000; r++) {
    for (int i = 0; i < 64; i++) { b[i] = a[i] * 1.5 + %d.0; }
  }
  return 0;
}|}
            tag))
  in
  let storm =
    busy_kernel 4_200_000 :: busy_kernel 4_200_001
    :: List.init 46 (fun i -> kernel (4_200_002 + i))
  in
  let poison_kinds = [ "minic_parse_error"; "minic_type_error"; "minic_type_error" ] in
  (* every Fresh submission with its served result, for the memo-off
     comparison once the daemon is gone *)
  let fresh = ref [] in
  let counter name m =
    match Json.member name m with
    | Some v -> Option.value ~default:0 (Json.to_int_opt v)
    | None -> 0
  in
  with_daemon ~config (fun addr ->
      let c = Client.connect addr in
      let polls = ref 0 in
      let request = Client.request c in
      let poll req =
        incr polls;
        request req
      in
      let metrics () =
        match request Protocol.Metrics with
        | Protocol.Metrics_data m -> m
        | _ -> Alcotest.fail "metrics request not answered with metrics"
      in
      let rec await id =
        match poll (Protocol.Fetch_result id) with
        | Protocol.Result (_, r) -> r
        | Protocol.Status { state = Protocol.Failed msg; _ } ->
            Alcotest.failf "job #%d failed: %s" id msg
        | Protocol.Status _ ->
            Thread.delay 0.001;
            await id
        | other ->
            Alcotest.failf "job #%d: unexpected fetch response %s" id
              (Json.to_string (Protocol.response_to_json other))
      in
      let submit sub =
        match request (Protocol.Submit_flow sub) with
        | Protocol.Submitted { job_id; disposition } -> Ok (job_id, disposition)
        | Protocol.Error e -> Error e
        | other ->
            Alcotest.failf "unexpected submit response %s"
              (Json.to_string (Protocol.response_to_json other))
      in
      (* one submission, awaited; its disposition must be [expect] *)
      let send what expect sub =
        match submit sub with
        | Ok (id, d) when d = expect ->
            let r = await id in
            if d = `Fresh then fresh := (what, sub, r) :: !fresh;
            r
        | Ok (_, d) ->
            Alcotest.failf "%s: %s, expected %s" what
              (Protocol.disposition_to_string d)
              (Protocol.disposition_to_string expect)
        | Error e -> Alcotest.failf "%s: %s" what (Protocol.error_message e)
      in
      let before = metrics () in
      (* hot: a first send executes, every repeat is a store hit serving
         the same bytes *)
      let firsts = List.mapi (fun i s -> send (Printf.sprintf "hot %d" i) `Fresh s) hot in
      for round = 1 to 2 do
        List.iteri
          (fun i (s, (first : Protocol.job_result)) ->
            let what = Printf.sprintf "hot %d repeat %d" i round in
            let r = send what `Cached s in
            check_str (what ^ " report") first.report r.Protocol.report;
            check_str (what ^ " data") (Json.to_string first.data)
              (Json.to_string r.Protocol.data))
          (List.combine hot firsts)
      done;
      List.iteri (fun i s -> ignore (send (Printf.sprintf "cold %d" i) `Fresh s)) cold;
      (* poison: a typed error at submit time, twice for each source *)
      for round = 0 to 1 do
        List.iteri
          (fun v kind ->
            match submit (Flow_load.Workload.poison_submission v) with
            | Error e ->
                check_str
                  (Printf.sprintf "poison %d (round %d) error kind" v round)
                  kind (Protocol.error_kind_tag e)
            | Ok _ -> Alcotest.failf "poison %d (round %d) was accepted" v round)
          poison_kinds
      done;
      (* storm: every item is accepted fresh or refused queue_full *)
      let items =
        match request (Protocol.Submit_batch storm) with
        | Protocol.Submitted_batch items -> items
        | _ -> Alcotest.fail "storm not answered with a batch"
      in
      check_int "storm items" 48 (List.length items);
      let accepted, refused =
        List.fold_left
          (fun (acc, rej) (i, (sub, item)) ->
            match item with
            | Ok (id, `Fresh) -> ((i, id, sub) :: acc, rej)
            | Error Protocol.Queue_full -> (acc, sub :: rej)
            | Ok (_, d) ->
                Alcotest.failf "storm %d: %s" i (Protocol.disposition_to_string d)
            | Error e -> Alcotest.failf "storm %d: %s" i (Protocol.error_message e))
          ([], [])
          (List.mapi (fun i x -> (i, x)) (List.combine storm items))
      in
      let n_refused = List.length refused in
      check_int "storm: accepted + queue_full" 48 (List.length accepted + n_refused);
      check
        (Printf.sprintf "storm: queue_full %d >= 48 - 32 - 2" n_refused)
        true
        (n_refused >= 48 - 32 - 2);
      let ids = List.map (fun (_, id, _) -> id) accepted in
      let rec drain () =
        let done_ =
          List.for_all
            (function
              | Ok ({ Protocol.state = Protocol.Done; _ }, Some _) -> true
              | Ok ({ Protocol.state = Protocol.Failed msg; _ }, _) ->
                  Alcotest.failf "storm job failed: %s" msg
              | _ -> false)
            (match poll (Protocol.Fetch_batch ids) with
            | Protocol.Results_batch items -> items
            | _ -> Alcotest.fail "fetch_batch not answered with a batch")
        in
        if not done_ then (
          Thread.delay 0.001;
          drain ())
      in
      drain ();
      List.iter
        (fun (i, id, sub) ->
          fresh := (Printf.sprintf "storm %d" i, sub, await id) :: !fresh)
        accepted;
      (* a refusal is not a result: resubmitted, each item executes *)
      List.iteri
        (fun i s -> ignore (send (Printf.sprintf "refused storm item %d" i) `Fresh s))
        refused;
      let after = metrics () in
      let delta name = counter name after - counter name before in
      let engine_delta name =
        let engine m = Option.value ~default:(Json.Obj []) (Json.member "engine" m) in
        counter name (engine after) - counter name (engine before)
      in
      (* 24 hot + 10 cold + 6 poison + 1 storm submit frames, the
         resubmissions, the polls, and the metrics read itself *)
      check_int "requests_total" (41 + n_refused + !polls + 1)
        (delta "requests_total");
      check_int "requests_rejected" (6 + n_refused) (delta "requests_rejected");
      check_int "store_hits" 16 (delta "store_hits");
      check_int "store_misses" (66 + n_refused) (delta "store_misses");
      check_int "interp_runs" 66 (engine_delta "interp_runs");
      check_int "jobs_completed" 66 (delta "jobs_completed");
      Client.close c;
      let active () =
        match Client.rpc addr Protocol.Metrics with
        | Protocol.Metrics_data m ->
            Option.bind (Json.member "connections_active" m) Json.to_float_opt
        | _ -> None
      in
      check "connections_active back to 1" true
        (wait_until (fun () -> active () = Some 1.0)));
  check_int "fresh results" 66 (List.length !fresh);
  List.iter
    (fun (what, sub, (r : Protocol.job_result)) ->
      let report, data = Helpers.memo_off_bytes sub in
      check_str (what ^ " = memo-off report") report r.report;
      check_str (what ^ " = memo-off data") data (Json.to_string r.data))
    (List.rev !fresh)

let test_client_timeout () =
  (* a listener that accepts nothing: connects sit in the backlog and
     never receive a byte back *)
  let path = Filename.temp_file "psaflow-timeout" ".sock" in
  Sys.remove path;
  let l = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind l (Unix.ADDR_UNIX path);
  Unix.listen l 8;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close l with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let addr = Protocol.Unix_path path in
  let c = Client.connect ~timeout_ms:150 addr in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let t0 = Unix.gettimeofday () in
  (match Client.request c Protocol.Metrics with
  | exception Client.Protocol_failure (Protocol.Timeout _) -> ()
  | exception e -> Alcotest.failf "expected Timeout, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected Timeout, got a response");
  let waited = Unix.gettimeofday () -. t0 in
  check "timed out near the deadline" true (waited >= 0.1 && waited < 5.0)

let test_connection_cap () =
  let config =
    { (Server.default_config ()) with Server.workers = 1; max_connections = 1 }
  in
  with_daemon ~config (fun addr ->
      (* with_daemon's ready probe briefly held the only slot; retry
         until its handler thread has released it and we are admitted *)
      let rec admit () =
        let c = Client.connect addr in
        match Client.request c Protocol.List_jobs with
        | Protocol.Jobs _ -> c
        | Protocol.Error Protocol.Server_busy ->
            Client.close c;
            Thread.delay 0.01;
            admit ()
        | _ ->
            Client.close c;
            Alcotest.fail "c1 should be admitted or busy"
      in
      let c1 = admit () in
      Fun.protect ~finally:(fun () -> Client.close c1) @@ fun () ->
      (* the second concurrent connection is answered server_busy *)
      let c2 = Client.connect addr in
      (match Client.request c2 Protocol.Metrics with
      | Protocol.Error Protocol.Server_busy -> ()
      | other ->
          Alcotest.failf "expected server_busy: %s"
            (Json.to_string (Protocol.response_to_json other)));
      Client.close c2;
      (* the rejection is visible in the daemon's metrics once the slot
         frees up *)
      Client.close c1;
      let freed =
        wait_until (fun () ->
            match Client.rpc addr Protocol.Metrics with
            | Protocol.Metrics_data m ->
                let m = Json.parse (Json.to_string m) in
                Option.bind (Json.member "connections_rejected" m)
                  Json.to_int_opt
                >= Some 1
            | _ -> false)
      in
      check "slot freed and rejection counted" true freed)

(* An uninformed rush_larsen flow models its FPGA designs at infinite
   seconds.  JSON has no infinity, so the result must carry those as
   display strings; and a connection handler must release its slot and
   socket whatever it raises.  [connections_active] is read over a
   connection of its own, so a daemon with no leaked slot reports 1. *)
let test_nonfinite_result () =
  let app = Benchmarks.Registry.find "rush_larsen" in
  let src = app.source ~n:app.profile_n in
  with_daemon (fun addr ->
      let rpc req = Client.rpc ~timeout_ms:20_000 addr req in
      let job_id =
        match
          rpc
            (Protocol.Submit_flow
               (Protocol.submission ~mode:Protocol.Uninformed
                  (Protocol.Inline src)))
        with
        | Protocol.Submitted { job_id; _ } -> job_id
        | other ->
            Alcotest.failf "unexpected submit response: %s"
              (Json.to_string (Protocol.response_to_json other))
      in
      let rec fetch () =
        match rpc (Protocol.Fetch_result job_id) with
        | Protocol.Result (view, r) -> (view, r)
        | Protocol.Status { state = Protocol.Failed msg; _ } ->
            Alcotest.failf "job failed: %s" msg
        | Protocol.Status _ ->
            Thread.delay 0.05;
            fetch ()
        | other ->
            Alcotest.failf "unexpected fetch response: %s"
              (Json.to_string (Protocol.response_to_json other))
      in
      let view, r = fetch () in
      check "job done" true (view.Protocol.state = Protocol.Done);
      let designs =
        match Json.member "designs" r.Protocol.data with
        | Some (Json.List ds) -> ds
        | _ -> Alcotest.fail "result carries no designs"
      in
      check "designs returned" true (designs <> []);
      check "infinite seconds travel as a string" true
        (List.exists
           (fun d -> Json.member "seconds" d = Some (Json.String "inf"))
           designs);
      (* the stored result re-encodes on a second fetch, on a new
         connection *)
      (match rpc (Protocol.Fetch_result job_id) with
      | Protocol.Result _ -> ()
      | _ -> Alcotest.fail "second fetch not served");
      let active () =
        match rpc Protocol.Metrics with
        | Protocol.Metrics_data m ->
            Option.bind (Json.member "connections_active" m) Json.to_float_opt
        | _ -> None
      in
      check "every finished connection released its slot" true
        (wait_until (fun () -> active () = Some 1.0)))

(* Number literals the lexer cannot convert are parse errors, not
   exceptions that kill the connection: alone, and as the middle item of
   a batch whose neighbours are still answered.  [connections_active]
   is read over a connection of its own, so no leaked slot means 1. *)
let test_malformed_literals_are_parse_errors () =
  let bad lit = Printf.sprintf "int main() {\n  double x = %s;\n  return 0;\n}" lit in
  with_daemon (fun addr ->
      List.iteri
        (fun i lit ->
          (match
             Client.rpc addr
               (Protocol.Submit_flow (Protocol.submission (Protocol.Inline (bad lit))))
           with
          | Protocol.Error (Protocol.Minic_parse_error _) -> ()
          | other ->
              Alcotest.failf "%s alone: %s" lit
                (Json.to_string (Protocol.response_to_json other)));
          let c = Client.connect addr in
          Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
          let items =
            Client.submit_batch c
              [
                Protocol.submission (Protocol.Inline (inline_kernel (100 + (2 * i))));
                Protocol.submission (Protocol.Inline (bad lit));
                Protocol.submission
                  (Protocol.Inline (inline_kernel (101 + (2 * i))));
              ]
          in
          match items with
          | [ Ok _; Error (Protocol.Minic_parse_error _); Ok _ ] -> ()
          | _ -> Alcotest.failf "%s in a batch: neighbours not answered" lit)
        [ "1e"; "1.5e+"; "2.0ef"; "9223372036854775808" ];
      let active () =
        match Client.rpc addr Protocol.Metrics with
        | Protocol.Metrics_data m ->
            Option.bind (Json.member "connections_active" m) Json.to_float_opt
        | _ -> None
      in
      check "every connection released its slot" true
        (wait_until (fun () -> active () = Some 1.0)))

let test_job_listing_and_unknown_job () =
  with_daemon (fun addr ->
      (match Client.rpc addr (Protocol.Job_status 42) with
      | Protocol.Error (Protocol.Unknown_job 42) -> ()
      | _ -> Alcotest.fail "expected unknown_job");
      match Client.rpc addr Protocol.List_jobs with
      | Protocol.Jobs [] -> ()
      | _ -> Alcotest.fail "expected empty job list")

(* Over the wire, a pruned job id answers the same typed error as an id
   that never existed, on every fetch path. *)
let test_pruned_job_is_unknown () =
  with_daemon (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let sub = Protocol.submission (Protocol.Inline (inline_kernel 7)) in
      let first =
        match snd (Client.submit c sub) with
        | Ok (id, _) -> id
        | Error e -> Alcotest.failf "submit: %s" (Protocol.error_message e)
      in
      check "first job done" true
        (wait_until (fun () ->
             match Client.fetch_batch c [ first ] with
             | [ Ok ({ Protocol.state = Protocol.Done; _ }, Some _) ] -> true
             | _ -> false));
      (* every duplicate is a store hit: one finished job each *)
      let rec fill acc left =
        if left = 0 then List.rev acc
        else
          let k = min left Protocol.max_batch_jobs in
          let ids =
            List.map
              (function
                | Ok (id, `Cached) -> id
                | _ -> Alcotest.fail "duplicate should be a store hit")
              (Client.submit_batch c (List.init k (fun _ -> sub)))
          in
          fill (List.rev_append ids acc) (left - k)
      in
      let n = 2 in
      let cached = fill [] (Scheduler.max_finished + n - 1) in
      let oldest = [ first; List.hd cached ] in
      List.iter
        (fun id ->
          (match Client.request c (Protocol.Fetch_result id) with
          | Protocol.Error (Protocol.Unknown_job i) when i = id -> ()
          | _ -> Alcotest.failf "fetch of pruned job #%d" id);
          match Client.request c (Protocol.Job_status id) with
          | Protocol.Error (Protocol.Unknown_job i) when i = id -> ()
          | _ -> Alcotest.failf "status of pruned job #%d" id)
        oldest;
      (match Client.fetch_batch c oldest with
      | [ Error (Protocol.Unknown_job _); Error (Protocol.Unknown_job _) ] -> ()
      | _ -> Alcotest.fail "batch fetch of pruned jobs");
      let newest = List.nth cached (List.length cached - 1) in
      match Client.request c (Protocol.Fetch_result newest) with
      | Protocol.Result _ -> ()
      | _ -> Alcotest.fail "newest job should be fetchable")

(* The client-minted request id must survive the full path — protocol
   frame, server, scheduler job, flow-exec root span — and come back
   attached to the retained trace served by svc_trace.  The first
   executed job of a fresh daemon is always sampled, so one submission
   suffices regardless of the sampling rate. *)
let test_request_id_trace_end_to_end () =
  with_daemon (fun addr ->
      let c = Client.connect addr in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      let rid, job_id =
        match
          Client.submit c
            (Protocol.submission (Protocol.Inline (inline_kernel 91)))
        with
        | rid, Ok (job_id, `Fresh) -> (rid, job_id)
        | rid, Ok (_, _) -> Alcotest.failf "%s: expected a fresh job" rid
        | _, Error e -> Alcotest.fail (Protocol.error_message e)
      in
      check "client minted an id" true (String.length rid > 0);
      (match Client.wait_result addr job_id with
      | Ok (view, _) -> check "done" true (view.Protocol.state = Protocol.Done)
      | Error e -> Alcotest.fail e);
      let records =
        match Client.traces addr with
        | Json.List l -> l
        | j -> Alcotest.failf "traces: expected a list, got %s" (Json.to_string j)
      in
      let r =
        match
          List.find_opt
            (fun r ->
              Json.member "request_id" r = Some (Json.String rid))
            records
        with
        | Some r -> r
        | None ->
            Alcotest.failf "no retained trace carries request id %s (%d records)"
              rid (List.length records)
      in
      check "record names the executed job" true
        (Json.member "job_id" r = Some (Json.Int job_id));
      check "retained because sampled" true
        (Json.member "sampled" r = Some (Json.Bool true));
      (* the embedded Chrome document holds the scheduler lifecycle
         instants and the flow root span, all tagged with the id *)
      let events =
        match Option.bind (Json.member "trace" r) (Json.member "traceEvents") with
        | Some (Json.List evs) -> evs
        | _ -> Alcotest.fail "no embedded traceEvents"
      in
      let cat_of e =
        Option.value ~default:""
          (Option.bind (Json.member "cat" e) Json.to_string_opt)
      in
      let rid_of e =
        Option.bind
          (Option.bind (Json.member "args" e) (Json.member "request_id"))
          Json.to_string_opt
      in
      check "flow root span captured" true
        (List.exists (fun e -> cat_of e = "service" && rid_of e = Some rid)
           events);
      check "scheduler start+finish instants captured" true
        (List.length
           (List.filter
              (fun e -> cat_of e = "scheduler" && rid_of e = Some rid)
              events)
        >= 2);
      (* the sampled ring is also surfaced in svc-metrics *)
      match Client.rpc addr Protocol.Metrics with
      | Protocol.Metrics_data m ->
          let m = Json.parse (Json.to_string m) in
          let traces = Json.member "request_traces" m in
          check "metrics report a retained trace" true
            (match Option.bind traces (Json.member "sampled") with
            | Some (Json.Int n) -> n >= 1
            | _ -> false)
      | other ->
          Alcotest.failf "metrics: %s"
            (Json.to_string (Protocol.response_to_json other)))

(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Seeded byte fuzzers: a typed error is the only allowed failure      *)
(* ------------------------------------------------------------------ *)

(* One to four byte edits of [s]: overwrite, delete a run, insert
   random bytes, or splice in one of [tokens]. *)
let mutate rng ~tokens s =
  let b = Buffer.create (String.length s + 16) in
  let s = ref s in
  for _ = 0 to Random.State.int rng 4 do
    let n = String.length !s in
    let at = Random.State.int rng (n + 1) in
    Buffer.clear b;
    Buffer.add_string b (String.sub !s 0 at);
    let rest =
      match Random.State.int rng 4 with
      | 0 when at < n ->
          Buffer.add_char b (Char.chr (Random.State.int rng 256));
          at + 1
      | 1 -> min n (at + 1 + Random.State.int rng 8)
      | 2 ->
          for _ = 0 to Random.State.int rng 3 do
            Buffer.add_char b (Char.chr (Random.State.int rng 256))
          done;
          at
      | _ ->
          Buffer.add_string b
            tokens.(Random.State.int rng (Array.length tokens));
          at
    in
    Buffer.add_string b (String.sub !s rest (n - rest));
    s := Buffer.contents b
  done;
  !s

(* Run [f] on [count] mutants of the [corpus] from a fixed seed; any
   exception [f] lets out fails with the mutant that raised it. *)
let fuzz ~seed ~count ~tokens corpus f =
  let rng = Random.State.make [| seed |] in
  for i = 1 to count do
    let input =
      mutate rng ~tokens corpus.(Random.State.int rng (Array.length corpus))
    in
    match f input with
    | () -> ()
    | exception e ->
        Alcotest.failf "seed %d, mutant %d raised %s on %S" seed i
          (Printexc.to_string e) input
  done

let test_fuzz_sources () =
  let corpus =
    Array.of_list
      (List.map
         (fun (app : Benchmarks.Bench_app.t) -> app.source ~n:app.profile_n)
         Benchmarks.Registry.all)
  in
  let tokens =
    [| "1e"; "1.5e+"; "2.0ef"; "99999999999999999999"; "0x"; "("; ")"; "{";
       "}"; "["; "]"; ";"; "*"; "/"; "int"; "double"; "return"; "for";
       "//"; "\000" |]
  in
  fuzz ~seed:7 ~count:2_000 ~tokens corpus (fun src ->
      ignore (Flow_exec.resolve (Protocol.submission (Protocol.Inline src))))

let frame_corpus () =
  Array.of_list
    (List.map
       (fun r -> Protocol.frame (Json.to_string (Protocol.request_to_json r)))
       sample_requests
    @ List.map
        (fun r -> Protocol.frame (Json.to_string (Protocol.response_to_json r)))
        sample_responses)

let frame_tokens =
  [| "{"; "}"; "["; "]"; "\""; "\\u"; "\\ud800"; ":"; ","; "1e999";
     "-"; "null"; "true"; "\"v\":"; "\"type\":"; "\xff\xff\xff\xff" |]

(* The payload of a mutated frame, if its header frames one, and its
   bytes past the header whatever the header says. *)
let frame_payloads bytes =
  (match Protocol.unframe bytes with
  | Some (payload, _) -> [ payload ]
  | None | (exception Protocol.Frame_error _) -> [])
  @
  if String.length bytes > 4 then
    [ String.sub bytes 4 (String.length bytes - 4) ]
  else []

let test_fuzz_frames () =
  let decode payload =
    match Json.parse_result payload with
    | Error _ -> ()
    | Ok j ->
        ignore (Protocol.request_of_json j);
        ignore (Protocol.response_of_json j)
  in
  fuzz ~seed:11 ~count:20_000 ~tokens:frame_tokens (frame_corpus ())
    (fun bytes -> List.iter decode (frame_payloads bytes))

(* ------------------------------------------------------------------ *)
(* Json: the codec against its character-at-a-time oracle             *)
(* ------------------------------------------------------------------ *)

(* A parse as the differential tests compare it: the value, or the
   error message and offset (any other exception by its name). *)
let parse_outcome parse s =
  match parse s with
  | v -> Ok v
  | exception Json.Parse_error (m, o) -> Error (Printf.sprintf "%d: %s" o m)
  | exception e -> Error ("raised " ^ Printexc.to_string e)

let same_parse s =
  match (parse_outcome Json.parse s, parse_outcome Json_oracle.parse s) with
  | Ok a, Ok b when Json.equal a b -> ()
  | Error a, Error b when String.equal a b -> ()
  | got, want ->
      let show = function
        | Ok v -> Json_oracle.to_string v
        | Error e -> "error " ^ e
      in
      Alcotest.failf "parse %S: got %s, oracle %s" s (show got) (show want)

let same_encoding v =
  check_str "compact bytes" (Json_oracle.to_string v) (Json.to_string v);
  check_str "pretty bytes" (Json_oracle.to_string_pretty v)
    (Json.to_string_pretty v)

(* Both encodings, and prefixes of the compact one (each a truncated
   document with its own error offset): all of them for a short
   document, every 37th and the last 40 for a long one. *)
let same_codec v =
  same_encoding v;
  let s = Json.to_string v in
  let len = String.length s in
  same_parse (Json.to_string_pretty v);
  for n = 0 to len do
    if len <= 400 || n mod 37 = 0 || n > len - 40 then
      same_parse (String.sub s 0 n)
  done

let codec_matches_oracle =
  Helpers.qtest ~count:500 "codec = oracle on generated values" arb_json
    (fun v ->
      same_codec v;
      true)

let test_codec_protocol_frames () =
  let rand = Random.State.make [| 26 |] in
  let batches =
    List.init 100 (fun _ ->
        Protocol.Submit_batch
          (QCheck.Gen.generate1 ~rand
             QCheck.Gen.(list_size (int_range 1 20) gen_submission)))
  in
  let fetches =
    List.init 50 (fun _ ->
        Protocol.Fetch_batch
          (QCheck.Gen.generate1 ~rand
             QCheck.Gen.(list_size (int_range 1 50) (int_range 1 10_000))))
  in
  List.iter
    (fun r -> same_codec (Protocol.request_to_json r))
    (sample_requests @ batches @ fetches);
  List.iter (fun r -> same_codec (Protocol.response_to_json r)) sample_responses;
  (* in place: a document's prefix of a longer buffer, escaped strings
     decoded in a lent scratch buffer *)
  let scratch = Buffer.create 16 in
  List.iter
    (fun r ->
      let s = Json.to_string (Protocol.response_to_json r) in
      List.iter
        (fun n ->
          let want = parse_outcome Json_oracle.parse (String.sub s 0 n) in
          let got =
            parse_outcome (Json.parse ~len:n ~scratch) (s ^ "\"\\u00 trailing")
          in
          check "parse ~len ~scratch = oracle on the prefix" true
            (match (got, want) with
            | Ok a, Ok b -> Json.equal a b
            | Error a, Error b -> a = b
            | _ -> false))
        [ String.length s; String.length s / 2; 0 ])
    sample_responses;
  (* a submit frame as the daemon sees it: a benchmark-sized source *)
  List.iter
    (fun (app : Benchmarks.Bench_app.t) ->
      same_codec
        (Protocol.request_to_json
           (Protocol.Submit_flow
              (Protocol.submission
                 (Protocol.Inline (app.source ~n:app.profile_n))))))
    Benchmarks.Registry.all

let test_codec_fuzzed_frames () =
  fuzz ~seed:11 ~count:20_000 ~tokens:frame_tokens (frame_corpus ())
    (fun bytes -> List.iter same_parse (bytes :: frame_payloads bytes))

let test_codec_edge_cases () =
  List.iter same_parse
    [ ""; " "; "\""; "\"\""; "\"abc"; "\"abc\\"; "\"abc\\\""; "\"abc\\\"\"";
      "\"\\\\\""; "\"\\\\"; "\"a\\nb\\tc\\r\\b\\f\\/\""; "\"\\q\"";
      "\"\\u\""; "\"\\u0\""; "\"\\u00\""; "\"\\u004\""; "\"\\u0041\"";
      "\"\\u00e9\""; "\"\\u20AC\""; "\"\\ud83d\\ude00\"";
      "\"\\uD83D\\uDE00\""; "\"\\ud83d\""; "\"\\ud83d\\\""; "\"\\ud83d\\u\"";
      "\"\\ud83d\\ude0\""; "\"\\ud83d\\ud83d\""; "\"\\ud83dx\"";
      "\"\\ude00\""; "\"\\ud83d\\n\""; "\"\\u0_41\""; "\"\\u_041\"";
      "\"\\u00_1\""; "\"\\u004g\""; "\"\\u-041\""; "\"\\u+041\"";
      "\"a\001b\""; "\"\031\""; "\"\127\""; "\"\000\""; "\"\xff\xfe\"";
      "\"x\\u0000y\""; "[\"a\",\"b\\\"\",\"\\\\\"]"; "{\"k\\u0041\":1}";
      "{\"a\":\"\\\"}"; "{\"a\" :\"b\\\\\"}"; "0"; "-0"; "-"; "--1"; "1-";
      "01"; "1.5"; "1e5"; "1E-5"; "-1.5e+3"; "1e999"; "-1e999"; "1.";
      ".5"; "4611686018427387903"; "4611686018427387904";
      "-4611686018427387904"; "-4611686018427387905";
      "123456789012345678"; "1234567890123456789"; "99999999999999999999";
      "000000000000000000001"; "1+2"; "tru"; "true"; "truex"; "nul";
      "null "; "fals"; "[1,]"; "[,1]"; "[1 2]"; "{\"a\"}"; "{\"a\":}";
      "{,}"; "{\"a\":1,}"; "{1:2}"; "\000"; "[\000]"; "{} x"; "  [ ] " ];
  (* every byte, alone and at both ends of a longer string *)
  for b = 0 to 255 do
    let c = String.make 1 (Char.chr b) in
    same_encoding (Json.String c);
    same_encoding (Json.List [ Json.String (c ^ "mid" ^ c); Json.String c ]);
    same_encoding (Json.Obj [ (c, Json.String ("\\" ^ c ^ "\"")) ]);
    same_parse ("\"" ^ c ^ "\"");
    same_parse ("\"ab" ^ c);
    same_parse ("\"\\" ^ c ^ "\"")
  done

let test_float_repr_oracle () =
  let same f =
    let outcome repr =
      match repr f with s -> s | exception Invalid_argument m -> "invalid " ^ m
    in
    let got = outcome Json.float_repr and want = outcome Json_oracle.float_repr in
    if got <> want then
      Alcotest.failf "float_repr %h: %S, Printf oracle %S" f got want
  in
  let rng = Random.State.make [| 2026 |] in
  for _ = 1 to 100_000 do
    same (Int64.float_of_bits (Random.State.bits64 rng))
  done;
  (* subnormals *)
  for _ = 1 to 10_000 do
    same
      (Int64.float_of_bits
         (Int64.logand (Random.State.bits64 rng) 0x800F_FFFF_FFFF_FFFFL))
  done;
  List.iter same
    [ 0.0; -0.0; 1.0; -1.0; 0.1; 1e-7; 1e15; 1e16; 1e17; 1e21; 1e22;
      max_float; -.max_float; min_float; -.min_float; epsilon_float;
      Int64.float_of_bits 1L; Int64.float_of_bits 0x000F_FFFF_FFFF_FFFFL;
      Float.nan; Float.infinity; Float.neg_infinity ];
  (* integers up to 2^53 *)
  for i = 0 to 10_000 do
    same (float_of_int i);
    same (float_of_int (-i))
  done;
  for k = 0 to 53 do
    let p = Float.ldexp 1.0 k in
    List.iter same [ p -. 1.0; p; p +. 1.0; -.p ]
  done;
  for _ = 1 to 10_000 do
    same (Int64.to_float (Random.State.int64 rng 0x20_0000_0000_0000L))
  done

(* ------------------------------------------------------------------ *)
(* Resolve: one digest and one typecheck per submitted source          *)
(* ------------------------------------------------------------------ *)

let test_resolve_repeats () =
  Psa.Stage_memo.clear ();
  let counter = Metrics.counter_value Metrics.global in
  let src = Flow_load.Workload.kernel_source 5_000_000 in
  let sub = Protocol.submission (Protocol.Inline src) in
  let resolve () =
    match Flow_exec.resolve sub with
    | Ok r -> r
    | Error e -> Alcotest.failf "resolve: %s" (Protocol.error_message e)
  in
  let misses0 = counter "memo_ast_misses" and hits0 = counter "memo_ast_hits" in
  let r1 = resolve () in
  let r2 = resolve () in
  check_int "first resolve misses the AST memo" 1
    (counter "memo_ast_misses" - misses0);
  check_int "the repeat hits it" 1 (counter "memo_ast_hits" - hits0);
  check_str "same store key" r1.key r2.key;
  check_str "store key of the source digest" r1.key
    (Store.key ~source_digest:(Digest.string src) ~mode:"informed"
       ~strategy:"fig3" ~x_threshold:2.0 ~budget:None ~workload:"inline");
  check "typecheck verdict kept with the AST" true
    (Atomic.get (Psa.Stage_memo.parsed src).typed);
  let bytes (r : Flow_exec.resolved) =
    let res = r.run ~request_id:None () in
    (res.Protocol.report, Json.to_string res.Protocol.data)
  in
  check "byte-identical results" true (bytes r1 = bytes r2);
  check "equal to memo-off execution" true
    (bytes r1 = Helpers.memo_off_bytes sub);
  (* failures: typed every time, and nothing recorded *)
  let ill_typed = "int main() { x = 1; return 0; }" in
  let unparseable = "int main( {" in
  let counters () =
    List.map counter [ "memo_ast_misses"; "memo_ast_hits" ]
  in
  let before = counters () in
  List.iter
    (fun (src, tag) ->
      for round = 1 to 2 do
        match Flow_exec.resolve (Protocol.submission (Protocol.Inline src)) with
        | Ok _ -> Alcotest.failf "%S accepted (round %d)" src round
        | Error e ->
            check_str (Printf.sprintf "%S round %d" src round) tag
              (Protocol.error_kind_tag e)
      done)
    [ (ill_typed, "minic_type_error"); (unparseable, "minic_parse_error") ];
  (* the ill-typed AST is memoized (a hit on its repeat) without a
     verdict; the unparseable source is not memoized at all *)
  check "ast memo: 3 misses, 1 hit" true
    (List.map2 ( - ) (counters ()) before = [ 3; 1 ]);
  check "no verdict for the ill-typed source" false
    (Atomic.get (Psa.Stage_memo.parsed ill_typed).typed);
  check "unparseable source not memoized" false
    (Flow_memo.Cache.mem Psa.Stage_memo.parse_cache
       ("ast:" ^ Digest.string unparseable));
  (* through the daemon: the same answers, and no store traffic *)
  with_daemon (fun addr ->
      let c = Client.connect addr in
      let metric name =
        match Client.request c Protocol.Metrics with
        | Protocol.Metrics_data m ->
            Option.value ~default:0 (Option.bind (Json.member name m) Json.to_int_opt)
        | _ -> Alcotest.fail "metrics request not answered with metrics"
      in
      let store0 = metric "store_misses" + metric "store_hits" in
      List.iter
        (fun (src, tag) ->
          for round = 1 to 2 do
            match
              Client.request c
                (Protocol.Submit_flow (Protocol.submission (Protocol.Inline src)))
            with
            | Protocol.Error e ->
                check_str (Printf.sprintf "daemon %S round %d" src round) tag
                  (Protocol.error_kind_tag e)
            | _ -> Alcotest.failf "daemon accepted %S (round %d)" src round
          done)
        [ (ill_typed, "minic_type_error"); (unparseable, "minic_parse_error") ];
      check_int "no store lookup" store0
        (metric "store_misses" + metric "store_hits");
      Client.close c)

let () =
  Alcotest.run "service"
    [
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "encode" `Quick test_json_encode;
          json_roundtrip;
          json_roundtrip_pretty;
          codec_matches_oracle;
          Alcotest.test_case "codec = oracle on protocol frames" `Quick
            test_codec_protocol_frames;
          Alcotest.test_case "codec = oracle on fuzzed frames" `Quick
            test_codec_fuzzed_frames;
          Alcotest.test_case "codec = oracle on edge cases" `Quick
            test_codec_edge_cases;
          Alcotest.test_case "float_repr = Printf ladder" `Quick
            test_float_repr_oracle;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "round-trip" `Quick test_protocol_roundtrip;
          Alcotest.test_case "versioning" `Quick test_protocol_versioning;
          Alcotest.test_case "v3 request ids and svc_trace" `Quick
            test_protocol_v3_trace_frames;
          batch_request_roundtrip;
          fetch_batch_roundtrip;
          Alcotest.test_case "batch limits" `Quick test_batch_limits;
          Alcotest.test_case "framing round-trip" `Quick test_framing_roundtrip;
          Alcotest.test_case "framing errors" `Quick test_framing_errors;
          Alcotest.test_case "framing over fds" `Quick test_framing_fd;
          Alcotest.test_case "frames through connection buffers" `Quick
            test_conn_frames;
        ] );
      ( "resolve",
        [
          Alcotest.test_case "repeats and failures" `Quick test_resolve_repeats;
        ] );
      ( "store",
        [
          Alcotest.test_case "keying" `Quick test_store_dedup_key;
          Alcotest.test_case "lru eviction" `Quick test_store_lru;
          Alcotest.test_case "sharding" `Quick test_store_sharding;
          Alcotest.test_case "domain hammer" `Quick test_store_hammer;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "dedup" `Quick test_scheduler_dedup;
          Alcotest.test_case "backpressure + drain" `Quick
            test_scheduler_backpressure;
          Alcotest.test_case "failure isolation" `Quick test_scheduler_failure;
          Alcotest.test_case "finished jobs bounded" `Quick
            test_scheduler_prunes_finished;
          Alcotest.test_case "used and fresh scheduler agree" `Quick
            test_daemon_identity;
        ] );
      ( "req_trace",
        [
          Alcotest.test_case "deterministic sampling" `Quick
            test_req_trace_sampling;
          Alcotest.test_case "slow exemplars" `Quick
            test_req_trace_slow_exemplars;
          Alcotest.test_case "ring capacity" `Quick test_req_trace_ring_capacity;
        ] );
      ( "traced_job",
        [
          Alcotest.test_case "records its own thread only" `Quick
            test_traced_job_own_thread;
          Alcotest.test_case "data minus trace = untraced data" `Quick
            test_traced_data_matches_untraced;
        ] );
      ( "perf_history",
        [
          Alcotest.test_case "median" `Quick test_perf_history_median;
          Alcotest.test_case "jsonl roundtrip" `Quick
            test_perf_history_file_roundtrip;
          Alcotest.test_case "rolling-median gate" `Quick
            test_perf_history_gate;
        ] );
      ("metrics", [ Alcotest.test_case "registry" `Quick test_metrics_registry ]);
      ( "daemon",
        [
          Alcotest.test_case "empty daemon" `Quick
            test_job_listing_and_unknown_job;
          Alcotest.test_case "batch end-to-end" `Quick test_batch_end_to_end;
          Alcotest.test_case "variant batch through the daemon" `Quick
            test_variant_batch_through_daemon;
          Alcotest.test_case "mixed traffic through the daemon: exact counts"
            `Quick test_mixed_traffic;
          Alcotest.test_case "malformed literals are parse errors" `Quick
            test_malformed_literals_are_parse_errors;
          Alcotest.test_case "pruned job is unknown" `Quick
            test_pruned_job_is_unknown;
          Alcotest.test_case "client receive timeout" `Quick test_client_timeout;
          Alcotest.test_case "connection cap" `Quick test_connection_cap;
          Alcotest.test_case "non-finite result is served" `Quick
            test_nonfinite_result;
          Alcotest.test_case "request-id trace end-to-end" `Quick
            test_request_id_trace_end_to_end;
          Alcotest.test_case "end-to-end vs direct flow" `Slow test_end_to_end;
          Alcotest.test_case "explain and per-job trace" `Slow
            test_explain_and_trace;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "mutated sources resolve or fail typed" `Quick
            test_fuzz_sources;
          Alcotest.test_case "mutated frames decode or fail typed" `Quick
            test_fuzz_frames;
        ] );
    ]
