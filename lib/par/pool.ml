(** Domain-parallel work pool.

    A small work-queue [map] over OCaml 5 [Domain]s, used by the
    report and bench benchmark collectors, plus the persistent worker
    sets of the service scheduler.  Neither a flow nor the interpreter
    maps on the pool: sweeps, branches and loop kernels run in the
    calling domain.  No external dependencies.

    Sizing: unless the caller passes [~jobs], [map] uses {!jobs}
    domains: [Domain.recommended_domain_count ()], capped at 8 — flow
    evaluation is memory-bandwidth-hungry and wider pools stop paying
    off.  With one job the pool degrades to a plain in-place
    [List.map], so sequential and parallel runs traverse items in the
    same order and produce identical result lists.

    Work items are claimed from a shared [Atomic] counter; results land
    in a pre-sized array, so the output order always matches the input
    order regardless of which domain ran which item.  The first
    exception raised by any item is re-raised in the caller (remaining
    items may still have been evaluated speculatively). *)

(** The worker count a [map] without [~jobs] uses. *)
let jobs () = min 8 (Domain.recommended_domain_count ())

exception Item_error of exn

(* ------------------------------------------------------------------ *)
(* Persistent worker sets                                              *)
(* ------------------------------------------------------------------ *)

(** A fixed set of long-lived worker domains, used by subsystems that
    keep workers blocked on a condition variable between jobs (the
    service scheduler) rather than fanning one batch out through
    {!map}.  The pool does not own a queue: the caller's [loop] is the
    entire worker body and is expected to block on the caller's own
    synchronisation until told to return.  [Mutex]/[Condition] are
    domain-safe, so the same drain discipline that worked across
    systhreads works across domains. *)
type workers = { domains : unit Domain.t array }

(** [spawn_workers n loop] starts [n] domains each running [loop i].
    An exception escaping [loop] is re-raised by {!join_workers}. *)
let spawn_workers n loop : workers =
  if n <= 0 then invalid_arg "Pool.spawn_workers: n must be positive";
  let m = Flow_obs.Metrics.global in
  Flow_obs.Metrics.incr ~by:n m "pool_worker_domains_spawned";
  { domains = Array.init n (fun i -> Domain.spawn (fun () -> loop i)) }

(** Join every worker domain.  The caller must already have arranged
    for each [loop] to return (drained queue, stop flag, ...);
    otherwise this blocks forever, exactly like [Thread.join] on a
    worker that never exits. *)
let join_workers (w : workers) = Array.iter Domain.join w.domains

(** [map f xs]: like [List.map f xs], evaluated by {!jobs} domains.
    Result order matches input order; with one job this is exactly
    [List.map]. *)
let map ?jobs:j f xs =
  let nworkers = match j with Some n -> max 1 n | None -> jobs () in
  let items = Array.of_list xs in
  let n = Array.length items in
  let m = Flow_obs.Metrics.global in
  Flow_obs.Metrics.incr ~by:n m "pool_items";
  Flow_obs.Metrics.set_gauge m "pool_workers" (float_of_int nworkers);
  if nworkers <= 1 || n <= 1 then begin
    Flow_obs.Metrics.incr m "pool_sequential_maps";
    List.map f xs
  end
  else begin
    Flow_obs.Metrics.incr m "pool_parallel_maps";
    Flow_obs.Metrics.observe m "pool_map_width" (float_of_int n);
    let results = Array.make n None in
    let next = Atomic.make 0 in
    let failure = Atomic.make None in
    let worker () =
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n && Atomic.get failure = None then begin
          (try results.(i) <- Some (f items.(i))
           with e ->
             (* keep the first failure; losing a race is fine *)
             ignore (Atomic.compare_and_set failure None (Some e)));
          loop ()
        end
      in
      loop ()
    in
    let spawned =
      List.init (min nworkers n - 1) (fun _ -> Domain.spawn worker)
    in
    worker ();
    List.iter Domain.join spawned;
    (match Atomic.get failure with Some e -> raise e | None -> ());
    Array.to_list
      (Array.map
         (function Some r -> r | None -> raise (Item_error Not_found))
         results)
  end
