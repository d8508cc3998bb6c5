(** Dynamic pointer alias analysis.

    The paper runs this before offloading to "ensure that pointer
    arguments do not reference overlapping memory locations" — a
    precondition for the restrict-style code generation all three
    backends rely on.

    Implementation: the profiling run tracks the hotspot loop as the
    kernel extraction makes of it; the interpreter records, per pointer
    argument, which memory regions were touched and over which offset
    range.  Two arguments alias if they touched the same region with
    intersecting ranges. *)

open Minic

type overlap = {
  arg_a : string;
  arg_b : string;
  region : int;
  range_a : int * int;
  range_b : int * int;
}

type t = {
  kernel : string;
  no_alias : bool;
  overlaps : overlap list;
}

let ranges_intersect (lo1, hi1) (lo2, hi2) = lo1 <= hi2 && lo2 <= hi1

let of_kernel_obs ~kernel (k : Minic_interp.Profile.kernel_obs) : t =
  let args = Array.to_list k.args in
  let overlaps = ref [] in
  let rec pairs = function
    | [] -> ()
    | (a : Minic_interp.Profile.arg_obs) :: rest ->
        List.iter
          (fun (b : Minic_interp.Profile.arg_obs) ->
            List.iter
              (fun (rid_a, lo_a, hi_a) ->
                List.iter
                  (fun (rid_b, lo_b, hi_b) ->
                    if rid_a = rid_b && ranges_intersect (lo_a, hi_a) (lo_b, hi_b)
                    then
                      overlaps :=
                        {
                          arg_a = a.arg_name;
                          arg_b = b.arg_name;
                          region = rid_a;
                          range_a = (lo_a, hi_a);
                          range_b = (lo_b, hi_b);
                        }
                        :: !overlaps)
                  b.regions_touched)
              a.regions_touched)
          rest;
        pairs rest
  in
  pairs args;
  { kernel; no_alias = !overlaps = []; overlaps = List.rev !overlaps }

(** Project the alias verdict of tracked loop [loop_sid] out of a fused
    profile. *)
let of_fused (fp : Minic_interp.Fused_profile.t) ~loop_sid ~kernel : t =
  match Minic_interp.Fused_profile.kernel_obs fp ~loop_sid with
  | None -> { kernel; no_alias = true; overlaps = [] }
  | Some k -> of_kernel_obs ~kernel k
