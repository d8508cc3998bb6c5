(** Hardened integer environment-knob parsing.

    The engine's tuning values are constants, not environment knobs;
    the one integer knob left is the client's
    [PSAFLOW_CLIENT_TIMEOUT_MS], a positive integer.  Reading it with a
    bare [int_of_string_opt] would silently accept zero and negative
    values.  {!int_opt} ignores non-integers with a warning, clamps
    below-minimum values to the minimum with a warning, and logs each
    distinct complaint once per process through {!Log} no matter how
    often the knob is re-read. *)

let warned : (string, unit) Hashtbl.t = Hashtbl.create 8
let warned_mutex = Mutex.create ()

let warn_once key fmt =
  let fresh =
    Mutex.lock warned_mutex;
    let fresh = not (Hashtbl.mem warned key) in
    if fresh then Hashtbl.replace warned key ();
    Mutex.unlock warned_mutex;
    fresh
  in
  if fresh then Log.warnf fmt else Printf.ifprintf () fmt

(** Forget which warnings were already emitted (tests). *)
let reset_warnings () =
  Mutex.lock warned_mutex;
  Hashtbl.reset warned;
  Mutex.unlock warned_mutex

(** Read integer knob [name].  [None] when unset or unparsable (with a
    once-per-process warning for the latter); values below [min] clamp
    to [min] with a once-per-process warning. *)
let int_opt ~name ~min:lo () =
  match Sys.getenv_opt name with
  | None -> None
  | Some raw -> (
      match int_of_string_opt (String.trim raw) with
      | None ->
          warn_once (name ^ "#parse") "%s=%S is not an integer; ignoring" name
            raw;
          None
      | Some v when v < lo ->
          warn_once (name ^ "#clamp") "%s=%d is below the minimum of %d; using %d"
            name v lo lo;
          Some lo
      | Some v -> Some v)
