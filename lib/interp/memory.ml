(** Array storage for the MiniC interpreter.

    Each array declaration allocates a [region]; pointers are (region id,
    offset) pairs.  Regions remember their element type so the profiler can
    charge the correct number of bytes per access.

    Region ids are small sequential integers, so the id -> region table is
    a growable array indexed directly by id — the per-access [Hashtbl]
    lookup of the original implementation was the single hottest
    operation of a profiling run (every load/store consulted it up to
    three times: value access, byte accounting, loop tracking).  The
    interpreter fetches the region record once per access and reads
    everything it needs from it. *)

type region = {
  id : int;
  name : string;  (** declaring variable, for diagnostics *)
  elem_typ : Minic.Ast.typ;
  elem_bytes : int;
  data : Value.t array;
}

type t = {
  mutable regions : region array;  (** index = region id, for id < next_id *)
  mutable next_id : int;
}

let create () = { regions = [||]; next_id = 0 }

(** Allocate a region of [n] elements of type [elem_typ], zero-filled. *)
let alloc t ~name ~elem_typ n =
  if n < 0 then Value.err "negative array size %d for '%s'" n name;
  let id = t.next_id in
  let cap = Array.length t.regions in
  if id >= cap then begin
    let grown =
      Array.make
        (max 8 (2 * cap))
        { id = -1; name = ""; elem_typ; elem_bytes = 0; data = [||] }
    in
    Array.blit t.regions 0 grown 0 cap;
    t.regions <- grown
  end;
  let region =
    {
      id;
      name;
      elem_typ;
      elem_bytes = Minic.Ast.sizeof elem_typ;
      data = Array.make n (Value.zero_of_typ elem_typ);
    }
  in
  t.regions.(id) <- region;
  t.next_id <- id + 1;
  Value.VPtr { mem_id = id; off = 0 }

let region t id =
  if id >= 0 && id < t.next_id then Array.unsafe_get t.regions id
  else Value.err "dangling pointer (region %d)" id

let load t (p : Value.ptr) =
  let r = region t p.mem_id in
  if p.off < 0 || p.off >= Array.length r.data then
    Value.err "out-of-bounds read of '%s' at index %d (size %d)" r.name p.off
      (Array.length r.data);
  r.data.(p.off)

let store t (p : Value.ptr) v =
  let r = region t p.mem_id in
  if p.off < 0 || p.off >= Array.length r.data then
    Value.err "out-of-bounds write of '%s' at index %d (size %d)" r.name p.off
      (Array.length r.data);
  r.data.(p.off) <- v

let length t id = Array.length (region t id).data
let elem_bytes t id = (region t id).elem_bytes
