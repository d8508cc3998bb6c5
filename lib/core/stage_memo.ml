(** Stage-level memoization of flow artifacts.

    Typed {!Flow_memo.Cache} instances for the target-independent
    prefix of the flow: parsed ASTs per source digest (each with its
    typecheck verdict and, once a flow needs it, its program digest),
    extracted kernels per (program digest, hotspot loop id),
    reduction-annotated kernels per (program digest, kernel name).  Wired through
    {!Std_flow}'s repository tasks and the service resolver so daemon
    submissions that share a source — variant traffic differing only
    in workload, budget or strategy — share the derived ASTs instead
    of re-deriving them per request.

    The caches only skip work.  Node ids are a function of the program
    ({!Minic.Ast.number}), so two parses of the same source, and the
    same transforms applied to them, agree on every id without this
    module: results are byte-identical with it switched off.  The ASTs
    are immutable ([Minic.Ast] has no mutable fields), so cross-domain
    sharing is safe.

    Program keys are {!Minic.Ast.digest}, the key of the profile cache:
    a structural digest of everything the pretty-printer prints (float
    literals as raw bits) with the loop statement ids inline — loop ids
    are the only statement ids observable downstream (profile
    statistics, "loop #N" log lines).  A hit walks the AST once and
    prints nothing.  Failures (parse errors, non-extractable hotspots)
    are never cached; error paths re-raise and recompute exactly as
    without memoization.  A parsed entry records only that its program
    typechecked: a type error is raised again by every {!typecheck}.

    All three caches follow the hierarchy-wide rules of {!Flow_memo}:
    disabled by its kill-switch, bounded to 512 entries, striped over 8
    locks, and counted in the global metrics registry as
    [memo_ast_*]/[memo_extract_*]/[memo_reduce_*]. *)

(** A memoized parse. *)
type parsed = {
  program : Minic.Ast.program;
  digest : Digest.t option Atomic.t;
      (** {!Minic.Ast.digest} of [program], once a flow has needed it *)
  typed : bool Atomic.t;  (** [program] has passed the typechecker *)
}

let parse_cache : parsed Flow_memo.Cache.t =
  Flow_memo.Cache.create ~name:"ast" ()

(** Parse MiniC source, memoized per source digest.  [digest], when
    given, must be [Digest.string src]: a caller that keys other work by
    it digests the source once. *)
let parsed ?digest (src : string) : parsed =
  let digest = match digest with Some d -> d | None -> Digest.string src in
  Flow_memo.Cache.find_or_compute parse_cache ~key:("ast:" ^ digest)
    (fun () ->
      {
        program = Minic.Parser.parse_program src;
        digest = Atomic.make None;
        typed = Atomic.make false;
      })

let parse src = (parsed src).program

(** {!Minic.Ast.digest} of the parsed program, computed by the first
    flow that asks (never on the submit path) and kept on the entry. *)
let program_digest (p : parsed) =
  match Atomic.get p.digest with
  | Some d -> d
  | None ->
      let d = Minic.Ast.digest p.program in
      Atomic.set p.digest (Some d);
      d

(** {!Minic.Typecheck.check_program} once per memoized parse: a success
    is recorded on the entry, a [Type_error] is raised every time. *)
let typecheck (p : parsed) =
  if not (Atomic.get p.typed) then begin
    Minic.Typecheck.check_program p.program;
    Atomic.set p.typed true
  end

let extract_cache : Transforms.Extract.result Flow_memo.Cache.t =
  Flow_memo.Cache.create ~name:"extract" ()

(** {!Transforms.Extract.hotspot}, memoized per (program digest,
    hotspot loop id).  [digest], when given, must be
    [Minic.Ast.digest p]. *)
let extract ?digest (p : Minic.Ast.program) ~loop_sid :
    Transforms.Extract.result =
  let digest = match digest with Some d -> d | None -> Minic.Ast.digest p in
  Flow_memo.Cache.find_or_compute extract_cache
    ~key:(Printf.sprintf "x:%s:%d" (Digest.to_hex digest) loop_sid)
    (fun () -> Transforms.Extract.hotspot p ~loop_sid)

let reduce_cache : (Minic.Ast.program * int) Flow_memo.Cache.t =
  Flow_memo.Cache.create ~name:"reduce" ()

(** {!Transforms.Reduction.remove_array_dependencies}, memoized per
    (program digest, kernel name). *)
let reduce (p : Minic.Ast.program) ~kernel : Minic.Ast.program * int =
  Flow_memo.Cache.find_or_compute reduce_cache
    ~key:
      (Printf.sprintf "r:%s:%s" (Digest.to_hex (Minic.Ast.digest p)) kernel)
    (fun () -> Transforms.Reduction.remove_array_dependencies p ~kernel)

(** Drop all parse/extract/reduce entries (tests). *)
let clear () =
  Flow_memo.Cache.clear parse_cache;
  Flow_memo.Cache.clear extract_cache;
  Flow_memo.Cache.clear reduce_cache
