(** Stage-level memoization of flow artifacts.

    Typed {!Flow_memo.Cache} instances for the target-independent
    prefix of the flow: parsed ASTs per source digest, extracted
    kernels per (program digest, hotspot loop id), reduction-annotated
    kernels per (program digest, kernel name).  Wired through
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
    without memoization.

    All three caches follow the hierarchy-wide rules of {!Flow_memo}:
    disabled by [PSAFLOW_NO_MEMO], bounded by [PSAFLOW_MEMO_CAP],
    striped over [PSAFLOW_MEMO_SHARDS], and counted in the global
    metrics registry as
    [memo_ast_*]/[memo_extract_*]/[memo_reduce_*]. *)

let parse_cache : Minic.Ast.program Flow_memo.Cache.t =
  Flow_memo.Cache.create ~name:"ast" ()

(** Parse MiniC source, memoized per source digest. *)
let parse (src : string) : Minic.Ast.program =
  Flow_memo.Cache.find_or_compute parse_cache
    ~key:("ast:" ^ Digest.to_hex (Digest.string src))
    (fun () -> Minic.Parser.parse_program src)

let extract_cache : Transforms.Extract.result Flow_memo.Cache.t =
  Flow_memo.Cache.create ~name:"extract" ()

(** {!Transforms.Extract.hotspot}, memoized per (program digest,
    hotspot loop id). *)
let extract (p : Minic.Ast.program) ~loop_sid : Transforms.Extract.result =
  Flow_memo.Cache.find_or_compute extract_cache
    ~key:
      (Printf.sprintf "x:%s:%d" (Digest.to_hex (Minic.Ast.digest p)) loop_sid)
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
