(** Array storage for the MiniC interpreter.

    Each array declaration allocates a [region]; pointers are (region id,
    offset) pairs.  Regions remember their element type so the profiler can
    charge the correct number of bytes per access.

    A [float]/[double] region keeps its elements unboxed in [fdata], a
    flat [float array]: a store writes the float itself and a load into
    a float register reads it back, so the hot float loads and stores
    of the VM and its fused kernels allocate nothing.  This is exact:
    every value a float region receives is a float (stores convert to
    the element type).  [int], [bool] and pointer regions keep
    [Value.t] elements in [data].  The other array of a region is
    empty.

    Region ids are small sequential integers, so the id -> region table is
    a growable array indexed directly by id.  The interpreter fetches the
    region record once per access and reads everything it needs from
    it. *)

type region = {
  id : int;
  name : string;  (** declaring variable, for diagnostics *)
  elem_typ : Minic.Ast.typ;
  elem_bytes : int;
  len : int;  (** element count *)
  flt : bool;  (** a [float]/[double] region: elements live in [fdata] *)
  fdata : float array;
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
        {
          id = -1;
          name = "";
          elem_typ;
          elem_bytes = 0;
          len = 0;
          flt = false;
          fdata = [||];
          data = [||];
        }
    in
    Array.blit t.regions 0 grown 0 cap;
    t.regions <- grown
  end;
  let flt =
    match elem_typ with Minic.Ast.Tfloat | Minic.Ast.Tdouble -> true | _ -> false
  in
  let region =
    {
      id;
      name;
      elem_typ;
      elem_bytes = Minic.Ast.sizeof elem_typ;
      len = n;
      flt;
      fdata = (if flt then Array.make n 0.0 else [||]);
      data = (if flt then [||] else Array.make n (Value.zero_of_typ elem_typ));
    }
  in
  t.regions.(id) <- region;
  t.next_id <- id + 1;
  Value.VPtr { mem_id = id; off = 0 }

let region t id =
  if id >= 0 && id < t.next_id then Array.unsafe_get t.regions id
  else Value.err "dangling pointer (region %d)" id

let length t id = (region t id).len
