(** Shared profile cache — the fused-profile stage of the memo
    hierarchy.

    Every dynamic design-flow task (hotspot detection, trip counts, data
    in/out, alias analysis, feature extraction) observes a program
    through one fused profiling execution ({!Fused_profile}); this
    module memoizes those runs so all consumers of the same program
    share one execution process-wide.  Node ids are a function of the
    program, so the same entries are also shared across daemon
    submissions and re-parses: a variant request (same source,
    different budget or strategy) re-uses the profile runs of the first
    request.

    One producer.  Entries are made by {!Analysis.Hotspot.fused} alone:
    its run of a program tracks {!Analysis.Hotspot.tracked}, a function
    of the program, so the program determines the entry and a hit
    computes nothing.  This module holds the table and its
    administration; it runs nothing itself.

    Keying.  The key is the program: {!Minic.Ast.digest}, a structural
    digest of everything the pretty-printer prints (float literals as
    raw bits) with each loop statement's id inline, plus the loop id of
    an extra run that tracks a single loop ([?loop]).  Loop ids must be
    part of the key because the profile's per-loop trip statistics are
    keyed by them, and text does not determine them: ids depend on the
    parse plus the transforms applied, so an inline source equal to the
    pretty-print of an extracted kernel has that kernel's text but
    different loop ids, and needs its own entry.  Program variants that
    differ textually (e.g. timer-instrumented copies) hash differently
    from the bare program, while re-running the *same* variant hits.
    The workload size [n] needs no dedicated key component: it is baked
    into the program.  A hit costs one walk of the AST and one digest;
    nothing is pretty-printed.

    Entries are returned by reference; treat cached {!Eval.run} values
    (and their profiles) as read-only.

    The store is a single-shard {!Flow_memo.Cache}: misses are
    single-flight (concurrent domains asking for the same run block on
    one execution instead of duplicating it) and eviction is true LRU —
    every hit re-stamps the entry.  It holds at most
    {!Flow_memo.default_capacity} (512) entries.  This stage is exempt
    from the memo kill-switch ({!Flow_memo.set_globally_enabled}) and
    has no switch of its own: it predates the hierarchy, and disabling
    it would not restore pre-memoization behavior — it would regress
    it.  An uncached analysis is one run after {!clear}.  Its counts
    are [Flow_memo.Cache.stats cache]; they are mirrored into the
    process-wide metrics registry ({!Flow_obs.Metrics.global}) as
    [profile_cache_hits]/[profile_cache_misses]/
    [profile_cache_evictions]. *)

(* Single shard on purpose: the interpreter run happens outside the
   shard lock, so striping buys nothing here, and one shard keeps the
   LRU eviction order (and the eviction counter) globally exact. *)
let cache : Eval.run Flow_memo.Cache.t =
  Flow_memo.Cache.create ~name:"profile" ~metric_prefix:"profile_cache"
    ~shards:1 ~no_memo_exempt:true ()

(** Drop all entries, keeping the hit/miss/eviction counters. *)
let clear () = Flow_memo.Cache.clear cache
