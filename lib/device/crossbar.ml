(* Each row is electrically a line array; the crossbar adds row-parallel
   R-ops, shared-TE V-op broadcasts and peripheral transfers between rows. *)

type t = {
  row_arrays : Line_array.t array;
  cols : int;
  params : Device.params;
  mutable v_cycles : int;
  mutable r_cycles : int;
  mutable nors : int;
  mutable transfers : int;
  mutable reads : int;
}

type counts = {
  v_cycles : int;  (** V-op cycles (single-row or broadcast) *)
  r_cycles : int;  (** parallel MAGIC NOR cycles *)
  nors : int;  (** individual gates fired across all R cycles *)
  transfers : int;  (** peripheral read+rewrite moves *)
  reads : int;  (** junction readouts *)
}

let create ~rng ~rows ~cols ?(params = Device.default_params) ?(v0 = 9.0) () =
  if rows <= 0 || cols <= 0 then invalid_arg "Crossbar.create";
  {
    row_arrays =
      Array.init rows (fun _ -> Line_array.create ~rng ~n:cols ~params ~v0 ());
    cols;
    params;
    v_cycles = 0;
    r_cycles = 0;
    nors = 0;
    transfers = 0;
    reads = 0;
  }

let rows t = Array.length t.row_arrays
let cols t = t.cols

let counts (t : t) =
  { v_cycles = t.v_cycles; r_cycles = t.r_cycles; nors = t.nors;
    transfers = t.transfers; reads = t.reads }

let check t ~row ~col =
  if row < 0 || row >= rows t then invalid_arg "Crossbar: row out of range";
  if col < 0 || col >= t.cols then invalid_arg "Crossbar: col out of range"

let device t ~row ~col =
  check t ~row ~col;
  Line_array.device t.row_arrays.(row) col

let states t = Array.map Line_array.states t.row_arrays

let set_state t ~row ~col b =
  check t ~row ~col;
  Line_array.set_states t.row_arrays.(row) [ (col, b) ]

let vop_cycle_row t ~row ~te ~be =
  check t ~row ~col:0;
  t.v_cycles <- t.v_cycles + 1;
  Line_array.apply t.row_arrays.(row) (Line_array.Vop { te; be })

(* One broadcast cycle: a single column TE pattern driven on the (shared)
   bit lines, applied to every listed row against that row's own BE rail.
   Rows not listed leave their BE floating and are untouched. Every listed
   row sees the FULL column pattern — a scheduler that co-activates rows
   wanting different patterns corrupts cells here, and row-by-row
   verification catches it downstream. *)
let vop_cycle_rows t ~active ~te =
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (row, _be) ->
      check t ~row ~col:0;
      if Hashtbl.mem seen row then
        invalid_arg "Crossbar.vop_cycle_rows: row listed twice";
      Hashtbl.add seen row ())
    active;
  t.v_cycles <- t.v_cycles + 1;
  List.iter
    (fun (row, be) ->
      Line_array.apply t.row_arrays.(row) (Line_array.Vop { te; be }))
    active

let parallel_magic_nor t gates =
  let seen_rows = Hashtbl.create 8 in
  List.iter
    (fun (row, in1, in2, out) ->
      check t ~row ~col:in1;
      check t ~row ~col:in2;
      check t ~row ~col:out;
      (* an output sharing a column with an input would fold the divider's
         load branch onto its drive branch: reject before any gate fires
         instead of corrupting earlier gates mid-cycle (in1 = in2 stays
         legal — that is the 2-device MAGIC NOT) *)
      if out = in1 || out = in2 then
        invalid_arg
          "Crossbar.parallel_magic_nor: gate output column collides with an \
           input column";
      if Hashtbl.mem seen_rows row then
        invalid_arg "Crossbar.parallel_magic_nor: two gates share a row";
      Hashtbl.add seen_rows row ())
    gates;
  t.r_cycles <- t.r_cycles + 1;
  t.nors <- t.nors + List.length gates;
  List.iter
    (fun (row, in1, in2, out) ->
      Line_array.apply t.row_arrays.(row) (Line_array.Nor { in1; in2; out }))
    gates

(* Peripheral move: sense the source junction, then rewrite the destination
   with a full write pulse. The pulse goes through Device.apply, so the
   destination's switch is counted against its endurance budget and a worn
   or stuck destination silently keeps its old value — exactly the failure
   the schedule-level re-verification exists to catch. *)
let transfer t ~src:(sr, sc) ~dst:(dr, dc) =
  check t ~row:sr ~col:sc;
  check t ~row:dr ~col:dc;
  let value = Device.state (device t ~row:sr ~col:sc) in
  t.transfers <- t.transfers + 1;
  let vw = t.params.Device.v_write in
  let d = device t ~row:dr ~col:dc in
  if value then ignore (Device.apply d ~v_te:vw ~v_be:0.0)
  else ignore (Device.apply d ~v_te:0.0 ~v_be:vw)

let read t ~row ~col =
  check t ~row ~col;
  t.reads <- t.reads + 1;
  Line_array.read t.row_arrays.(row) col

let total_switches t =
  Array.fold_left (fun acc r -> acc + Line_array.total_switches r) 0 t.row_arrays
