(** Array storage for the MiniC interpreter.

    Each array declaration allocates a [region]; pointers are (region id,
    offset) pairs.  Regions remember their element type so the profiler can
    charge the correct number of bytes per access.

    A region keeps its elements unboxed by element type ({!rep}): a
    [float]/[double] region in [fdata], a flat [float array]; an [int]
    region in [idata], a flat [int array], and a [bool] region there too,
    as 0 or 1.  A store writes the number itself and a load into a
    register of the matching bank reads it back, so the VM's loads and
    stores of numbers, and its kernels' int and float sites, allocate
    nothing.  This is exact: every value a region receives already has
    its element type (stores convert to it).  Only pointer regions keep
    [Value.t] elements, in [data].  The other arrays of a region are
    empty.

    Region ids are small sequential integers, so the id -> region table is
    a growable array indexed directly by id.  The interpreter fetches the
    region record once per access and reads everything it needs from
    it. *)

(** Where a region's elements live. *)
type rep =
  | Flt  (** [float]/[double]: [fdata] *)
  | Int  (** [int]: [idata] *)
  | Bool  (** [bool]: [idata], 0 or 1 *)
  | Boxed  (** pointers: [data] *)

type region = {
  id : int;
  name : string;  (** declaring variable, for diagnostics *)
  elem_typ : Minic.Ast.typ;
  elem_bytes : int;
  len : int;  (** element count *)
  rep : rep;
  fdata : float array;
  idata : int array;
  data : Value.t array;
}

type t = {
  mutable regions : region array;  (** index = region id, for id < next_id *)
  mutable next_id : int;
}

let create () = { regions = [||]; next_id = 0 }

(** A placeholder for table slots no region occupies. *)
let none =
  {
    id = -1;
    name = "";
    elem_typ = Minic.Ast.Tvoid;
    elem_bytes = 0;
    len = 0;
    rep = Boxed;
    fdata = [||];
    idata = [||];
    data = [||];
  }

let rep_of = function
  | Minic.Ast.Tfloat | Minic.Ast.Tdouble -> Flt
  | Minic.Ast.Tint -> Int
  | Minic.Ast.Tbool -> Bool
  | Minic.Ast.Tptr _ | Minic.Ast.Tvoid -> Boxed

(** Allocate a region of [n] elements of type [elem_typ], zero-filled. *)
let alloc t ~name ~elem_typ n =
  if n < 0 then Value.err "negative array size %d for '%s'" n name;
  let id = t.next_id in
  let cap = Array.length t.regions in
  if id >= cap then begin
    let grown = Array.make (max 8 (2 * cap)) none in
    Array.blit t.regions 0 grown 0 cap;
    t.regions <- grown
  end;
  let rep = rep_of elem_typ in
  let region =
    {
      id;
      name;
      elem_typ;
      elem_bytes = Minic.Ast.sizeof elem_typ;
      len = n;
      rep;
      fdata = (if rep = Flt then Array.make n 0.0 else [||]);
      idata = (if rep = Int || rep = Bool then Array.make n 0 else [||]);
      data =
        (if rep = Boxed then Array.make n (Value.zero_of_typ elem_typ) else [||]);
    }
  in
  t.regions.(id) <- region;
  t.next_id <- id + 1;
  Value.VPtr { mem_id = id; off = 0 }

let region t id =
  if id >= 0 && id < t.next_id then Array.unsafe_get t.regions id
  else Value.err "dangling pointer (region %d)" id

let length t id = (region t id).len
