(** The design-flow context threaded through every PSA-flow task.

    A context starts from an unoptimised high-level reference program and
    accumulates what the flow learns (hotspot, kernel features) and what
    it produces (the current path's design under construction, finished
    timed designs).  Branch points duplicate the context per selected
    path; contexts are immutable records, so paths never interfere. *)

open Minic

type t = {
  benchmark : string;
  reference : Ast.program;  (** the untouched input source *)
  reference_digest : Digest.t;
      (** {!Ast.digest} of [reference], computed once per flow: the key
          of every program-keyed memo lookup on the reference *)
  program : Ast.program;  (** current working program *)
  (* workload scaling: the flow profiles at [profile_n]; [secondary]
     provides the same application at another size for power-law fitting;
     [eval_n] is the paper-scale size features are extrapolated to *)
  profile_n : int;
  secondary : (int * Ast.program) option;
  eval_n : int option;
  (* accrued knowledge *)
  kernel : string option;
  hotspot : Analysis.Hotspot.t option;
  features : Analysis.Features.t option;  (** at profile scale *)
  eval_features : Analysis.Features.t option;  (** at evaluation scale *)
  alias_ok : bool option;
  (* products *)
  current : Codegen.Design.t option;  (** design being built on this path *)
  results : Devices.Simulate.result list;  (** finished, timed designs *)
  (* configuration *)
  x_threshold : float;  (** FLOPs/B threshold X of the Fig. 3 strategy *)
  budget : float option;  (** cost budget, $ per run (Fig. 3 feedback) *)
  log : string list;  (** reverse-chronological event log *)
  decisions : Flow_obs.Provenance.decision list;
      (** reverse-chronological branch-decision provenance *)
}

(* Workload-size validation: a nonsensical size is a caller bug and is
   rejected outright; suspicious-but-legal combinations (extrapolation
   data without a profile size, evaluation scale below profile scale)
   are loudly recorded in the context log, where every flow report
   surfaces them. *)
let validate_sizes ~benchmark ~profile_n ~secondary ~eval_n =
  if profile_n < 0 then
    invalid_arg
      (Printf.sprintf "Context.make: profile_n = %d must be >= 0" profile_n);
  (match secondary with
  | Some (n2, _) when n2 <= 0 ->
      invalid_arg
        (Printf.sprintf "Context.make: secondary size %d must be positive" n2)
  | _ -> ());
  (match eval_n with
  | Some e when e <= 0 ->
      invalid_arg (Printf.sprintf "Context.make: eval_n = %d must be positive" e)
  | _ -> ());
  let warnings = ref [] in
  let warn fmt = Printf.ksprintf (fun m -> warnings := m :: !warnings) fmt in
  if profile_n = 0 && (secondary <> None || eval_n <> None) then
    warn
      "warning: %s: profile_n is 0, so features cannot be extrapolated \
       and the secondary/eval workload sizes are ignored"
      benchmark;
  (match (secondary, profile_n) with
  | Some (n2, _), p when p > 0 && n2 = p ->
      warn
        "warning: %s: secondary size %d equals profile_n, power-law \
         fitting is degenerate"
        benchmark n2
  | _ -> ());
  (match eval_n with
  | Some e when profile_n > 0 && e < profile_n ->
      warn
        "warning: %s: eval_n %d is smaller than profile_n %d — \
         extrapolating downwards"
        benchmark e profile_n
  | _ -> ());
  !warnings

(** [digest], when given, must be [Ast.digest reference]. *)
let make ?(benchmark = "app") ?(profile_n = 0) ?secondary ?eval_n
    ?(x_threshold = 2.0) ?budget ?digest (reference : Ast.program) : t =
  let warnings = validate_sizes ~benchmark ~profile_n ~secondary ~eval_n in
  {
    benchmark;
    reference;
    reference_digest =
      (match digest with Some d -> d | None -> Ast.digest reference);
    program = reference;
    profile_n;
    secondary;
    eval_n;
    kernel = None;
    hotspot = None;
    features = None;
    eval_features = None;
    alias_ok = None;
    current = None;
    results = [];
    x_threshold;
    budget;
    log = warnings;
    decisions = [];
  }

let log msg ctx = { ctx with log = msg :: ctx.log }

let logf ctx fmt = Printf.ksprintf (fun m -> log m ctx) fmt

(** The event log in chronological order. *)
let events ctx = List.rev ctx.log

exception Missing of string

(** Kernel name; raises if extraction has not run yet. *)
let kernel_exn ctx =
  match ctx.kernel with
  | Some k -> k
  | None -> raise (Missing "kernel (hotspot extraction has not run)")

(** Features at evaluation scale (falls back to profile scale). *)
let eval_features_exn ctx =
  match (ctx.eval_features, ctx.features) with
  | Some f, _ | None, Some f -> f
  | None, None -> raise (Missing "features (analysis tasks have not run)")

let features_exn ctx =
  match ctx.features with
  | Some f -> f
  | None -> raise (Missing "features (analysis tasks have not run)")

(** Record a finished design with its simulated time. *)
let finish result ctx =
  { ctx with results = ctx.results @ [ result ]; current = None }

(** All finished designs across a list of terminal contexts (the output
    of running a branching flow). *)
let collect_results ctxs = List.concat_map (fun c -> c.results) ctxs

(** Merged event log of all terminal contexts: branch fan-out duplicates
    the shared prefix into every leaf, so drop each leaf's longest common
    prefix with the previous one. *)
let collect_logs ctxs =
  let rec drop_common prev cur =
    match (prev, cur) with
    | p :: prev', c :: cur' when p = c -> drop_common prev' cur'
    | _ -> cur
  in
  let rec go prev = function
    | [] -> []
    | c :: rest ->
        let ev = events c in
        drop_common prev ev @ go ev rest
  in
  go [] ctxs

(** Record a branch decision (provenance) on the context. *)
let record_decision d ctx = { ctx with decisions = d :: ctx.decisions }

(** Branch decisions of one context, in chronological order. *)
let decisions ctx = List.rev ctx.decisions

(** Merged decision provenance of all terminal contexts; like
    {!collect_logs}, fan-out duplicates the shared prefix into every
    leaf, so each leaf contributes only its novel suffix. *)
let collect_decisions ctxs =
  let rec drop_common prev cur =
    match (prev, cur) with
    | (p : Flow_obs.Provenance.decision) :: prev', c :: cur' when p = c ->
        drop_common prev' cur'
    | _ -> cur
  in
  let rec go prev = function
    | [] -> []
    | c :: rest ->
        let ds = decisions c in
        drop_common prev ds @ go ds rest
  in
  go [] ctxs
