(** Content-addressed result store.

    Finished flow results are stored under a digest of everything that
    determines them — the MiniC source text, the workload sizes, the
    mode, the PSA strategy and its parameters — the same keying
    discipline as the interpreter's [Profile_cache] (which keys on
    observable program content, never on names).  Flow execution is
    deterministic, so two submissions with equal keys have equal
    results: duplicates are deduped into one execution and repeat
    requests are O(1) hits here.

    The store is a {!Flow_memo.Cache} read with [find] and filled with
    [add] (insert-or-replace, true LRU eviction).  Like the profile
    cache it ignores [PSAFLOW_NO_MEMO], so dedup never switches off; its counters land in the metrics registry as
    [result_store_hits]/[_misses]/[_evictions]. *)

type 'a t = 'a Flow_memo.Cache.t

(** A store of at most [capacity] results, striped over [shards] locks
    (default [PSAFLOW_MEMO_SHARDS]; never more than [capacity]). *)
let create ?shards ~capacity () : 'a t =
  if capacity <= 0 then invalid_arg "Store.create: capacity must be positive";
  let shards =
    min capacity
      (match shards with Some s -> s | None -> Flow_memo.env_shards ())
  in
  Flow_memo.Cache.create ~name:"result_store" ~cap:capacity ~shards
    ~no_memo_exempt:true ~metric_prefix:"result_store" ()

let find = Flow_memo.Cache.find
let add = Flow_memo.Cache.add

(** Digest of the determining inputs of one flow execution.  [source] is
    the full MiniC text (content, not benchmark name); [workload]
    canonicalises the profile/secondary/eval sizes. *)
let key ~source ~mode ~strategy ~x_threshold ~budget ~workload =
  let buf = Buffer.create (String.length source + 64) in
  Buffer.add_string buf source;
  Buffer.add_char buf '\000';
  Buffer.add_string buf mode;
  Buffer.add_char buf '\000';
  Buffer.add_string buf strategy;
  Buffer.add_char buf '\000';
  Buffer.add_string buf (Printf.sprintf "%.17g" x_threshold);
  Buffer.add_char buf '\000';
  (match budget with
  | Some b -> Buffer.add_string buf (Printf.sprintf "%.17g" b)
  | None -> Buffer.add_string buf "-");
  Buffer.add_char buf '\000';
  Buffer.add_string buf workload;
  Digest.to_hex (Digest.string (Buffer.contents buf))
