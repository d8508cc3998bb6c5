(** Execution profile collected by the MiniC interpreter.

    The interpreter charges *virtual cycles* modelling one thread of the
    reference CPU (the paper's baseline: a single EPYC 7543 core).  All
    dynamic design-flow tasks read their observations from here:

    - hotspot detection reads the per-timer cycle totals produced by the
      [__timer_start]/[__timer_stop] hooks it instruments into the source;
    - loop trip-count analysis reads per-loop iteration statistics, which
      the interpreter records keyed by the loop statement's node id;
    - data in/out analysis reads, per tracked loop, the transfer
      requirements of each pointer the loop's extracted kernel would take
      as an argument;
    - pointer alias analysis reads the same pointers' touched ranges.

    FLOP / special-function / byte counters additionally feed the
    analytical device models in [lib/devices]. *)

(** Virtual cycle costs of one reference CPU thread.  These constants
    define the baseline all Fig. 5 speedups are measured against. *)
module Cost = struct
  let int_op = 1.0
  let float_add = 1.0
  let float_mul = 1.0
  let float_div = 8.0
  let load = 4.0
  let store = 4.0
  let branch = 1.0
  let loop_iter = 2.0
  let call = 5.0

  (** Cycles for a math builtin of the given cost class. *)
  let math_call (c : Minic.Builtins.cost_class) =
    match c with
    | Cheap -> 2.0
    | Sqrt_div -> 20.0
    | Exp_log -> 40.0
    | Trig -> 40.0
    | Power -> 80.0
end

type loop_stat = {
  mutable invocations : int;  (** times the loop statement was entered *)
  mutable iterations : int;  (** total body executions *)
  mutable min_trip : int;  (** fewest iterations of one invocation *)
  mutable max_trip : int;
  mutable cycles : float;  (** inclusive virtual cycles spent in the loop *)
}

type timer = { mutable total : float; mutable started_at : float option }

(** Observations of one pointer argument of a tracked loop's kernel. *)
type arg_obs = {
  arg_index : int;
  arg_name : string;
  mutable regions_touched : (int * int * int) list;
      (** (region id, min offset, max offset) touched through this arg *)
  mutable bytes_in : int;
      (** elements whose first kernel access is a read, i.e. data that a
          host->device transfer must supply *)
  mutable bytes_out : int;  (** elements written, i.e. device->host data *)
}

(** Aggregated observations of one tracked loop, as the kernel
    extracted from it would see them: one [call] per invocation. *)
type kernel_obs = {
  mutable calls : int;
  mutable k_cycles : float;
  mutable k_flops : int;
  mutable k_sfu : int;
  mutable k_bytes_read : int;
  mutable k_bytes_written : int;
  mutable args : arg_obs array;
}

type t = {
  mutable cycles : float;
  mutable flops : int;
  mutable sfu_ops : int;  (** special-function evaluations (exp, sqrt, ...) *)
  mutable int_ops : int;
  mutable loads : int;
  mutable stores : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  loops : (int, loop_stat) Hashtbl.t;
  timers : (int, timer) Hashtbl.t;
  kernel : (int, kernel_obs) Hashtbl.t;
      (** per tracked loop node id, once the loop has run *)
}

let create () =
  {
    cycles = 0.0;
    flops = 0;
    sfu_ops = 0;
    int_ops = 0;
    loads = 0;
    stores = 0;
    bytes_read = 0;
    bytes_written = 0;
    loops = Hashtbl.create 32;
    timers = Hashtbl.create 8;
    kernel = Hashtbl.create 8;
  }

let loop_stat t sid =
  match Hashtbl.find_opt t.loops sid with
  | Some s -> s
  | None ->
      let s =
        {
          invocations = 0;
          iterations = 0;
          min_trip = max_int;
          max_trip = 0;
          cycles = 0.0;
        }
      in
      Hashtbl.replace t.loops sid s;
      s

let timer t key =
  match Hashtbl.find_opt t.timers key with
  | Some tm -> tm
  | None ->
      let tm = { total = 0.0; started_at = None } in
      Hashtbl.replace t.timers key tm;
      tm

let timer_start t key = (timer t key).started_at <- Some t.cycles

let timer_stop t key =
  let tm = timer t key in
  match tm.started_at with
  | Some s ->
      tm.total <- tm.total +. (t.cycles -. s);
      tm.started_at <- None
  | None -> Value.err "__timer_stop(%d) without a matching start" key

(** Total cycles attributed to timer [key]. *)
let timer_total t key =
  match Hashtbl.find_opt t.timers key with Some tm -> tm.total | None -> 0.0

(** All timers as (key, cycles) sorted by descending cycles. *)
let timers_by_cost t =
  Hashtbl.fold (fun k tm acc -> (k, tm.total) :: acc) t.timers []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(** Wall-clock seconds of the modelled single-thread reference CPU. *)
let seconds ?(clock_hz = 2.8e9) t = t.cycles /. clock_hz

(** Trip statistics of the loop with node id [sid], if it ever ran. *)
let loop_stat_opt t sid = Hashtbl.find_opt t.loops sid

(** Kernel observations of tracked loop [sid], if it ever ran. *)
let kernel_obs t sid = Hashtbl.find_opt t.kernel sid

let mean_trip (s : loop_stat) =
  if s.invocations = 0 then 0.0
  else float_of_int s.iterations /. float_of_int s.invocations
