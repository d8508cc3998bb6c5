(** Result canonicalization for perfbench's replay.

    This module exists only because [perfbench/replay.ml] calls
    [canonicalize_sids]; nothing in [lib/], [bin/] or [bench/] uses it.
    Daemon traffic is measured end to end by perfbench's [service_mix]
    workload and pinned with exact counts by [test_service]'s "mixed
    traffic through the daemon: exact counts". *)

(** Rewrite every "loop #N" token to "loop #_". *)
let canonicalize_sids s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let marker = "loop #" in
  let m = String.length marker in
  let i = ref 0 in
  while !i < n do
    if !i + m <= n && String.sub s !i m = marker then begin
      Buffer.add_string buf marker;
      i := !i + m;
      while !i < n && s.[!i] >= '0' && s.[!i] <= '9' do
        incr i
      done;
      Buffer.add_char buf '_'
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf
