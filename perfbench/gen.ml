(** Seeded inputs of the three workloads.

    Every input is a pure function of [(seed, index)]: the benchmark
    passes the program nothing but the generated submissions, and two
    runs with the same seed submit the same sequence (how far into the
    sequence a run gets depends on how fast the program answers).

    - [cold_designs]: the five paper generators in turn, each at a
      problem size that no earlier request of the run used.
    - [variant_sweep]: a pool of four paper kernels, replayed in seeded
      passes over the 12-entry (mode, strategy, x_threshold, budget)
      grid.
    - [service_mix]: hot repeats, unique tiny kernels, poison sources
      and small [submit_batch] frames. *)

module Protocol = Flow_service.Protocol
module Workload = Flow_load.Workload
module Bench_app = Benchmarks.Bench_app

(** What a correct answer to a submission looks like. *)
type expect =
  | Fresh  (** a result the daemon executed for this submission *)
  | Cached  (** a result served from the result store *)
  | Rejected of string  (** this typed error ({!Protocol.error_kind_tag}) *)

type item = {
  sub : Protocol.submission;
  expect : expect;
  kind : string;  (** the input population it comes from, for reporting *)
}

type op = Single of item | Batch of item list

(* Index-addressable pseudo-randomness: a pure function of the seed, a
   stream name and the index, so any request can be generated without
   replaying the ones before it. *)
let draw ~seed ~stream i bound = Hashtbl.hash (seed, stream, i) mod bound

(** A seeded permutation of [a] (Fisher–Yates over {!draw}). *)
let shuffle ~seed ~stream a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = draw ~seed ~stream i (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

let inline ?mode ?strategy ?x_threshold ?budget src =
  Protocol.submission ?mode ?strategy ?x_threshold ?budget (Protocol.Inline src)

(** The MiniC text of a submission; every workload submits inline. *)
let source (s : Protocol.submission) =
  match s.source with Protocol.Inline src -> src | Protocol.Bench id -> invalid_arg ("not inline: " ^ id)

(* ------------------------------------------------------------------ *)
(* Problem-size ladders                                                *)
(* ------------------------------------------------------------------ *)

let ladder_len = 64
let pairs_per_block = 4

(** Distinct problem sizes around [app.profile_n], on a step of 1/200
    of it (at least 1; sizes at least 2): [profile_n] itself, then the
    pairs [profile_n -/+ k*step] for k = 1, 2, ...  Pairs come in blocks
    of [pairs_per_block]; the seed orders the pairs inside a block and
    the two sizes inside a pair.  A run walks the ladder from the front,
    so every run uses the sizes nearest [profile_n], and any prefix that
    ends on a pair boundary is balanced around it: two seeds differ in
    order, barely in the mix of sizes. *)
let ladder ~seed (app : Bench_app.t) : int array =
  let step = max 1 (app.profile_n / 200) in
  let pair k =
    let lo = app.profile_n - (k * step) and hi = app.profile_n + (k * step) in
    let both = if lo >= 2 then [| lo; hi |] else [| hi |] in
    shuffle ~seed ~stream:(Printf.sprintf "%s/pair%d" app.id k) both
  in
  let blocks = ladder_len / pairs_per_block in
  let sizes =
    Array.concat
      ([| app.profile_n |]
      :: List.init blocks (fun b ->
             let ks = Array.init pairs_per_block (fun j -> 1 + (b * pairs_per_block) + j) in
             Array.concat
               (Array.to_list
                  (Array.map pair (shuffle ~seed ~stream:(Printf.sprintf "%s/block%d" app.id b) ks)))))
  in
  Array.sub sizes 0 ladder_len

let apps = Array.of_list Benchmarks.Registry.all

(* ------------------------------------------------------------------ *)
(* cold_designs                                                        *)
(* ------------------------------------------------------------------ *)

(** Requests a run of [cold_designs] can make before a size repeats. *)
let cold_capacity = Array.length apps * ladder_len

(* The daemon cannot answer an uninformed rush_larsen flow: its FPGA
   designs are unsynthesizable with infinite modelled seconds, which the
   result encoder refuses, killing the connection handler.  Until that
   is fixed rush_larsen goes in informed (Fig. 3 picks the GPU path, so
   its profiling and analysis work is unchanged) and stays out of the
   variant pool, whose grid has uninformed entries. *)
let uninformed_ok (app : Bench_app.t) = app.id <> "rush_larsen"

(** The [i]-th cold request: the generators in turn, in a seeded order,
    each at its next unused ladder size, submitted inline, uninformed
    where the daemon can answer that. *)
let cold_designs ~seed =
  let ladders = Array.map (ladder ~seed) apps in
  let order = shuffle ~seed ~stream:"cold/order" (Array.init (Array.length apps) Fun.id) in
  fun i ->
    if i >= cold_capacity then invalid_arg "cold_designs: size ladder exhausted";
    let g = order.(i mod Array.length apps) in
    let n = ladders.(g).(i / Array.length apps) in
    let mode = if uninformed_ok apps.(g) then Protocol.Uninformed else Protocol.Informed in
    Single { sub = inline ~mode (apps.(g).source ~n); expect = Fresh; kind = apps.(g).id }

(* ------------------------------------------------------------------ *)
(* variant_sweep                                                       *)
(* ------------------------------------------------------------------ *)

(** The pool: one source per generator the daemon can answer uninformed,
    at the size its ladder puts first.  Primed cold (default
    parameters) during set-up. *)
let variant_pool ~seed =
  Array.of_list
    (List.filter_map
       (fun (app : Bench_app.t) ->
         if uninformed_ok app then Some (app.source ~n:(ladder ~seed app).(0)) else None)
       Benchmarks.Registry.all)

let grid = Array.of_list Workload.variant_params

(* One pass = a seeded permutation of every (source, grid entry) pair.
   No entry among the first half of a pass is among the last half of
   the previous one, so two submissions of a key are always half a pass
   apart: the connections never hold the same key at once, and a
   one-entry result store never still holds it. *)
let next_pass ~seed ~n p (prev : int array option) =
  let a = shuffle ~seed ~stream:("variant/pass" ^ string_of_int p) (Array.init n Fun.id) in
  (match prev with
  | None -> ()
  | Some prev ->
      let half = n / 2 in
      let recent = Array.sub prev (n - half) half in
      let is_recent x = Array.mem x recent in
      for j = 0 to half - 1 do
        if is_recent a.(j) then begin
          let k = ref half in
          while is_recent a.(!k) do incr k done;
          let t = a.(j) in
          a.(j) <- a.(!k);
          a.(!k) <- t
        end
      done);
  a

let variant_sweep ~seed =
  let pool = variant_pool ~seed in
  let n = Array.length pool * Array.length grid in
  (* passes are built in order, on demand, by whichever client gets
     there first *)
  let lock = Mutex.create () and passes = ref [||] in
  let pass p =
    Mutex.protect lock (fun () ->
        while Array.length !passes <= p do
          let k = Array.length !passes in
          let prev = if k = 0 then None else Some !passes.(k - 1) in
          passes := Array.append !passes [| next_pass ~seed ~n k prev |]
        done;
        !passes.(p))
  in
  fun i ->
    let pair = (pass (i / n)).(i mod n) in
    let src = pool.(pair / Array.length grid) in
    let mode, strategy, x_threshold, budget = grid.(pair mod Array.length grid) in
    Single
      {
        sub = inline ~mode ~strategy ~x_threshold ?budget src;
        expect = Fresh;
        kind = Protocol.mode_to_string mode;
      }

(* ------------------------------------------------------------------ *)
(* service_mix                                                         *)
(* ------------------------------------------------------------------ *)

let hot_pool_size = 6

(** Hot sources: paper kernels (generators round-robin) at ladder
    sizes, executed once during set-up so every later repeat is a
    result-store hit. *)
let hot_pool ~seed =
  Array.init hot_pool_size (fun h ->
      let app = apps.(h mod Array.length apps) in
      app.source ~n:(ladder ~seed app).(h / Array.length apps))

(* Workload.poison_submission's three variants and the typed error each
   must draw. *)
let poison_expect = [| "minic_parse_error"; "minic_type_error"; "minic_type_error" |]

let service_mix ~seed =
  let hot = hot_pool ~seed in
  (* unique tiny kernels fold a per-index constant, so tags never
     repeat within a run *)
  let tag_base = 10_000_000 + (draw ~seed ~stream:"mix/tags" 0 1000 * 100_000) in
  let item i j =
    let r = draw ~seed ~stream:"mix/item" ((i * 16) + j) 100 in
    if r < 65 then
      {
        sub = inline hot.(draw ~seed ~stream:"mix/hot" ((i * 16) + j) hot_pool_size);
        expect = Cached;
        kind = "hot";
      }
    else if r < 90 then
      { sub = inline (Workload.kernel_source (tag_base + (i * 16) + j)); expect = Fresh; kind = "tiny" }
    else
      let v = draw ~seed ~stream:"mix/poison" ((i * 16) + j) 3 in
      { sub = Workload.poison_submission v; expect = Rejected poison_expect.(v); kind = "poison" }
  in
  fun i ->
    let r = draw ~seed ~stream:"mix/op" i 100 in
    if r < 90 then Single (item i 0)
    else Batch (List.init (4 + draw ~seed ~stream:"mix/batch" i 5) (item i))
