(** Cross-request artifact memoization.

    The daemon's only reuse unit used to be the whole-result store: a
    resubmission with a different budget, strategy or workload size
    recomputed parse, extraction, analysis and DSE from zero even
    though most stages do not depend on the field that changed.  This
    module provides the shared machinery for build-system-style stage
    memoization: a content-addressed, sharded, capacity-bounded cache
    with single-flight computation, so concurrent scheduler domains
    asking for the same artifact run the stage once and everyone else
    waits for the result instead of duplicating it.

    Each stage (parsed AST, extracted kernel, reduced kernel, analysis
    features, fused profile run, DSE sweep outcome) creates one
    ['a Cache.t] instance holding its typed artifacts; stage keys are
    digests of everything the stage output depends on (see DESIGN.md
    §18 for the key scheme per stage).  The daemon's
    whole-result store is one more instance, filled with plain
    {!Cache.add} after a job finishes and read with {!Cache.find}.

    Semantics and invariants:

    - Entries are returned by reference: cached artifacts must be
      treated as read-only.  All memoized stages store immutable
      values (MiniC ASTs carry no mutable fields; [Eval.run] profiles
      are treated as read-only by every consumer).
    - Eviction is true LRU: every hit re-stamps the entry, using a
      lazy-deletion stamp queue so hits cost O(1) amortized and the
      queue stays within a constant factor of the live entries.
    - Tracing never changes what runs: a traced run consults the
      caches like any other, so its spans show the work actually done
      (a hit records no spans for the stage it skips).
    - [PSAFLOW_NO_MEMO=1] disables every cache except those created
      with [~no_memo_exempt:true] (the fused-profile stage and the
      result store, which predate the hierarchy), restoring
      pre-memoization behavior bit-for-bit.
    - [PSAFLOW_MEMO_CAP] (default 512) bounds each cache's entry
      count; [PSAFLOW_MEMO_SHARDS] (default 8) sets the lock-striping
      width.  Both follow the hardened {!Flow_obs.Env} grammar.

    Every cache mirrors its hit/miss/eviction/single-flight counters
    into {!Flow_obs.Metrics.global} as
    [<prefix>_hits]/[_misses]/[_evictions]/[_single_flight] (prefix
    [memo_<name>] by default), so the whole hierarchy is visible in
    [psaflow svc-metrics] and the bench reports. *)

let default_capacity = 512

let env_capacity () =
  Flow_obs.Env.int ~name:"PSAFLOW_MEMO_CAP" ~default:default_capacity ~min:1 ()

let env_shards () =
  Flow_obs.Env.int ~name:"PSAFLOW_MEMO_SHARDS" ~default:8 ~min:1 ()

(* Process-wide kill-switch: [PSAFLOW_NO_MEMO] at startup, overridable
   at runtime for tests and identity-comparison harnesses. *)
let globally_enabled =
  Atomic.make (not (Flow_obs.Env.flag ~name:"PSAFLOW_NO_MEMO" ()))

let set_globally_enabled b = Atomic.set globally_enabled b
let is_globally_enabled () = Atomic.get globally_enabled

module Cache = struct
  type stats = {
    hits : int;
    misses : int;
    evictions : int;
    single_flight : int;
  }

  type 'a entry = { value : 'a; mutable stamp : int }

  type 'a shard = {
    lock : Mutex.t;
    cond : Condition.t;
    table : (string, 'a entry) Hashtbl.t;
    inflight : (string, unit) Hashtbl.t;
    (* Lazy-deletion LRU: every insert and hit pushes (key, stamp);
       only the newest stamp of a key matches its entry, older stamps
       are skipped during eviction and squeezed out by compaction. *)
    stamps : (string * int) Queue.t;
    mutable clock : int;
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable single_flight : int;
  }

  type 'a t = {
    name : string;
    metric_prefix : string;
    no_memo_exempt : bool;
    mutable capacity : int; (* total across shards *)
    mutable enabled : bool;
    shards : 'a shard array;
  }

  let make_shard () =
    {
      lock = Mutex.create ();
      cond = Condition.create ();
      table = Hashtbl.create 32;
      inflight = Hashtbl.create 4;
      stamps = Queue.create ();
      clock = 0;
      hits = 0;
      misses = 0;
      evictions = 0;
      single_flight = 0;
    }

  (** [create ~name ()] makes a stage cache.  [cap] defaults to
      [PSAFLOW_MEMO_CAP]; [shards] to [PSAFLOW_MEMO_SHARDS].
      [no_memo_exempt] (default false) opts the cache out of
      [PSAFLOW_NO_MEMO] (the fused-profile stage and the result store
      do this: switching them off would not restore pre-memoization
      behavior, it would regress it). *)
  let create ~name ?cap ?shards ?(no_memo_exempt = false)
      ?metric_prefix () : 'a t =
    let cap = match cap with Some c -> max 1 c | None -> env_capacity () in
    let n = match shards with Some s -> max 1 s | None -> env_shards () in
    {
      name;
      metric_prefix =
        (match metric_prefix with Some p -> p | None -> "memo_" ^ name);
      no_memo_exempt;
      capacity = cap;
      enabled = true;
      shards = Array.init n (fun _ -> make_shard ());
    }

  let set_enabled t b = t.enabled <- b

  let set_capacity t c =
    if c < 1 then invalid_arg "Flow_memo.Cache.set_capacity: capacity >= 1";
    t.capacity <- c

  (** Whether a lookup right now would consult the table at all. *)
  let active t =
    t.enabled && (t.no_memo_exempt || Atomic.get globally_enabled)

  let gincr ?by name = Flow_obs.Metrics.incr ?by Flow_obs.Metrics.global name

  let shard_of t key =
    let n = Array.length t.shards in
    if n = 1 then t.shards.(0) else t.shards.(Hashtbl.hash key mod n)

  let per_shard_cap t =
    let n = Array.length t.shards in
    max 1 ((t.capacity + n - 1) / n)

  (* All [_locked] helpers run with the shard lock held. *)

  (* Lazy-deletion queues need squeezing on every push, hits included:
     a hit-only workload would otherwise grow the queue by one stamp
     per hit.  Compaction runs once the queue holds 8x the live
     entries, so it stays O(1) amortized. *)
  let compact_locked sh =
    if Queue.length sh.stamps > (8 * Hashtbl.length sh.table) + 64 then begin
      let live =
        Queue.fold
          (fun acc (k, s) ->
            match Hashtbl.find_opt sh.table k with
            | Some e when e.stamp = s -> (k, s) :: acc
            | _ -> acc)
          [] sh.stamps
      in
      Queue.clear sh.stamps;
      List.iter (fun ks -> Queue.push ks sh.stamps) (List.rev live)
    end

  let touch_locked sh key (e : 'a entry) =
    sh.clock <- sh.clock + 1;
    e.stamp <- sh.clock;
    Queue.push (key, sh.clock) sh.stamps;
    compact_locked sh

  let evict_excess_locked t sh =
    let cap = per_shard_cap t in
    let evicted = ref 0 in
    while Hashtbl.length sh.table > cap && not (Queue.is_empty sh.stamps) do
      let k, s = Queue.pop sh.stamps in
      match Hashtbl.find_opt sh.table k with
      | Some e when e.stamp = s ->
          Hashtbl.remove sh.table k;
          sh.evictions <- sh.evictions + 1;
          incr evicted
      | _ -> () (* stale stamp: the key was re-touched or removed *)
    done;
    !evicted

  (* [key]'s resident value, re-stamped and counted as a hit. *)
  let hit_locked sh key =
    match Hashtbl.find_opt sh.table key with
    | Some e ->
        touch_locked sh key e;
        sh.hits <- sh.hits + 1;
        Some e.value
    | None -> None

  (* Insert or replace [key], then evict down to capacity; returns the
     eviction count for {!count_evictions} once the lock is released.
     A replaced entry's old stamps go stale with it. *)
  let insert_locked t sh key v =
    let e = { value = v; stamp = 0 } in
    Hashtbl.replace sh.table key e;
    touch_locked sh key e;
    evict_excess_locked t sh

  let count_evictions t n =
    if n > 0 then gincr ~by:n (t.metric_prefix ^ "_evictions")

  (** [find t key] is the cached value of [key], re-stamped as most
      recently used, or [None] (a miss).  A disabled cache always
      misses and counts nothing. *)
  let find (t : 'a t) key : 'a option =
    if not (active t) then None
    else begin
      let sh = shard_of t key in
      Mutex.lock sh.lock;
      let r = hit_locked sh key in
      if Option.is_none r then sh.misses <- sh.misses + 1;
      Mutex.unlock sh.lock;
      gincr (t.metric_prefix ^ if Option.is_some r then "_hits" else "_misses");
      r
    end

  (** [add t key v] inserts [v] under [key], replacing any resident
      value (without growing the cache) and evicting the least recently
      used entries past capacity.  A no-op while the cache is disabled. *)
  let add (t : 'a t) key v =
    if active t then begin
      let sh = shard_of t key in
      Mutex.lock sh.lock;
      let evicted = insert_locked t sh key v in
      Mutex.unlock sh.lock;
      count_evictions t evicted
    end

  (** [find_or_compute t ~key f] returns the cached artifact for [key]
      or computes it with [f] exactly once process-wide: a concurrent
      request for an in-flight key blocks until the computing domain
      publishes (single-flight).  [f] runs outside the shard lock.  An
      exception from [f] is re-raised to the computing caller and
      unblocks the waiters, which retry (nothing is cached, so error
      paths behave exactly as without memoization).  [on] (if given)
      observes the outcome: [true] for a hit — including a
      single-flight wait — [false] for a computing miss; it is not
      called when the cache is disabled. *)
  let find_or_compute (t : 'a t) ?on ~key (f : unit -> 'a) : 'a =
    if not (active t) then f ()
    else begin
      let sh = shard_of t key in
      let report b = match on with Some g -> g b | None -> () in
      let rec acquire ~waited =
        match hit_locked sh key with
        | Some v -> `Hit v
        | None ->
            if Hashtbl.mem sh.inflight key then begin
              if not waited then sh.single_flight <- sh.single_flight + 1;
              Condition.wait sh.cond sh.lock;
              acquire ~waited:true
            end
            else begin
              Hashtbl.replace sh.inflight key ();
              sh.misses <- sh.misses + 1;
              `Compute
            end
      in
      Mutex.lock sh.lock;
      let outcome = acquire ~waited:false in
      Mutex.unlock sh.lock;
      match outcome with
      | `Hit v ->
          gincr (t.metric_prefix ^ "_hits");
          report true;
          v
      | `Compute -> (
          gincr (t.metric_prefix ^ "_misses");
          report false;
          match f () with
          | v ->
              Mutex.lock sh.lock;
              Hashtbl.remove sh.inflight key;
              let evicted =
                if Hashtbl.mem sh.table key then 0
                else insert_locked t sh key v
              in
              Condition.broadcast sh.cond;
              Mutex.unlock sh.lock;
              count_evictions t evicted;
              v
          | exception e ->
              let bt = Printexc.get_raw_backtrace () in
              Mutex.lock sh.lock;
              Hashtbl.remove sh.inflight key;
              Condition.broadcast sh.cond;
              Mutex.unlock sh.lock;
              Printexc.raise_with_backtrace e bt)
    end

  (** Whether [key] is resident (tests; does not touch LRU order). *)
  let mem t key =
    let sh = shard_of t key in
    Mutex.lock sh.lock;
    let r = Hashtbl.mem sh.table key in
    Mutex.unlock sh.lock;
    r

  let length t =
    Array.fold_left
      (fun acc sh ->
        Mutex.lock sh.lock;
        let n = Hashtbl.length sh.table in
        Mutex.unlock sh.lock;
        acc + n)
      0 t.shards

  (** Drop all entries (keeps counters; in-flight computations finish
      and publish into the emptied table). *)
  let clear t =
    Array.iter
      (fun sh ->
        Mutex.lock sh.lock;
        Hashtbl.reset sh.table;
        Queue.clear sh.stamps;
        Mutex.unlock sh.lock)
      t.shards

  let stats t : stats =
    Array.fold_left
      (fun (acc : stats) sh ->
        Mutex.lock sh.lock;
        let r =
          {
            hits = acc.hits + sh.hits;
            misses = acc.misses + sh.misses;
            evictions = acc.evictions + sh.evictions;
            single_flight = acc.single_flight + sh.single_flight;
          }
        in
        Mutex.unlock sh.lock;
        r)
      { hits = 0; misses = 0; evictions = 0; single_flight = 0 }
      t.shards

  let reset_stats t =
    Array.iter
      (fun sh ->
        Mutex.lock sh.lock;
        sh.hits <- 0;
        sh.misses <- 0;
        sh.evictions <- 0;
        sh.single_flight <- 0;
        Mutex.unlock sh.lock)
      t.shards
end
