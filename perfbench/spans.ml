(** The benchmark's own span recorder.

    Spans are timestamped here, around calls into the program's public
    functions; nothing inside the program is switched on.  In
    particular the program's global tracer ([Flow_obs.Trace.start]) is
    never used: while it records, every stage memo bypasses itself and
    surrogate guidance turns off, so a run under it would measure a
    different program.

    Recording is domain-safe (one mutex; the uninformed fan-out runs
    flow paths on several domains at once).  Spans stay in memory and
    are written out when the benchmark ends. *)

type span = {
  id : int;
  parent : int;  (** [-1] for a request's root span *)
  req : int;  (** submission index; every span of one request shares it *)
  layer : string;  (** a [lib/] directory name, or ["request"] *)
  name : string;
  t0 : float;
  t1 : float;
}

type t = { lock : Mutex.t; next : int Atomic.t; mutable spans : span list }

let create () = { lock = Mutex.create (); next = Atomic.make 0; spans = [] }

let now = Unix.gettimeofday

(** A fresh span id, taken before the span starts so children can name
    their parent while it is still open. *)
let fresh t = Atomic.fetch_and_add t.next 1

let add t sp =
  Mutex.lock t.lock;
  t.spans <- sp :: t.spans;
  Mutex.unlock t.lock

(** Time [f ()] as span [id] (default: a fresh id).  The span is kept
    even when [f] raises. *)
let record t ?id ~parent ~req ~layer name f =
  let id = match id with Some i -> i | None -> fresh t in
  let t0 = now () in
  let finish () = add t { id; parent; req; layer; name; t0; t1 = now () } in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

let spans t = List.rev t.spans
let count t = Atomic.get t.next

let ms sp = 1000.0 *. (sp.t1 -. sp.t0)

(** Milliseconds of [(lo, hi)] covered by the union of [intervals]. *)
let covered_ms ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b))
        | None -> (total, Some (a, b)))
      (0.0, None) clipped
  in
  let total = match last with Some (a, b) -> total +. (b -. a) | None -> total in
  1000.0 *. total

(** Write the spans [keep] selects as one JSON object per line. *)
let write ?(keep = fun _ -> true) t path =
  let oc = open_out path in
  List.iter
    (fun sp ->
      Printf.fprintf oc
        "{\"id\":%d,\"parent\":%d,\"req\":%d,\"layer\":%S,\"name\":%S,\"t0\":%.6f,\"t1\":%.6f}\n"
        sp.id sp.parent sp.req sp.layer sp.name sp.t0 sp.t1)
    (List.filter keep (spans t));
  close_out oc

(** Mean cost of recording one span, measured on [n] empty spans. *)
let calibrate ?(n = 20_000) () =
  let t = create () in
  let t0 = now () in
  for i = 1 to n do
    record t ~parent:(-1) ~req:i ~layer:"calibration" "empty" ignore
  done;
  (now () -. t0) /. float_of_int n
