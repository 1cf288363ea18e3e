type t = { devices : Device.t array; params : Device.params; v0 : float }

type cell_obs = {
  v_te : float;
  v_be : float;
  resistance : float;
  current : float;
}

type cycle =
  | Vop of { te : int -> bool option; be : bool }
  | Nor of { in1 : int; in2 : int; out : int }
  | Nimp of { in1 : int; in2 : int; out : int }
  | Read of int

let create ~rng ~n ?(params = Device.default_params) ?(v0 = 9.0) () =
  if n <= 0 then invalid_arg "Line_array.create";
  { devices = Array.init n (fun _ -> Device.create ~rng params); params; v0 }

let size t = Array.length t.devices

let device t i =
  if i < 0 || i >= size t then invalid_arg "Line_array.device";
  t.devices.(i)

let states t = Array.map Device.state t.devices

let set_states t l = List.iter (fun (i, b) -> Device.set_state (device t i) b) l

(* The electrode voltages of a V-op cycle: cell [i] drives its TE per
   [te i] ([None] = dummy, TE mirrors BE); every cell shares the BE rail. *)
let v_write t = t.params.Device.v_write
let v_be_of t be = if be then v_write t else 0.0

let v_te_of t ~te ~be i =
  match te i with Some true -> v_write t | Some false -> 0.0 | None -> v_be_of t be

(* Quasi-transient divider: the output device is designed to switch first;
   once it has settled, the remaining node-voltage stress lands on the
   inputs. Under nominal parameters the settled output shields the inputs;
   under heavy variation a sluggish output leaves LRS inputs exposed to a
   destructive RESET — the cascading-R-op failure mode the paper warns
   about. Returns the settled node voltage. *)
let magic_nor t ~in1 ~in2 ~out =
  let d1 = device t in1 and d2 = device t in2 and dout = device t out in
  if in1 = out || in2 = out then invalid_arg "Line_array.magic_nor";
  (* in1 = in2 is the degenerate 2-device MAGIC NOT: the divider sees a
     single input device instead of two in parallel *)
  let node_voltage () =
    let r1 = Device.resistance d1
    and r2 = Device.resistance d2
    and ro = Device.resistance dout in
    let rp = if in1 = in2 then r1 else r1 *. r2 /. (r1 +. r2) in
    t.v0 *. ro /. (rp +. ro)
  in
  (* output sees the node voltage in RESET polarity *)
  Device.apply_across dout (-.(node_voltage ()));
  (* inputs see the residual stress, also in RESET polarity *)
  let v_n = node_voltage () in
  Device.apply_across d1 (-.(t.v0 -. v_n));
  Device.apply_across d2 (-.(t.v0 -. v_n));
  v_n

(* NIMP(in1, in2) = in1 ∧ ¬in2: the output (preset HRS) sees
   v0 · R2 / (R1 + R2) in SET polarity — large only when in1 is LRS (small
   R1) and in2 is HRS (large R2). Returns the settled node voltage. *)
let v0_nimp t = t.v0 *. 2.0 /. 3.0

let magic_nimp t ~in1 ~in2 ~out =
  let d1 = device t in1 and d2 = device t in2 and dout = device t out in
  if in1 = out || in2 = out then invalid_arg "Line_array.magic_nimp";
  (* NIMP discriminates v(1,1) = v0n/2 from v(1,0) ≈ v0n, so its drive
     voltage sits lower than the NOR's: v0n = 2/3 · v0 places the two cases
     at 3 V and ~5.9 V around the 4 V SET threshold with default params. *)
  let v0n = v0_nimp t in
  let node_voltage () =
    let r1 = Device.resistance d1 and r2 = Device.resistance d2 in
    v0n *. r2 /. (r1 +. r2)
  in
  Device.apply_across dout (node_voltage ());
  let v_n = node_voltage () in
  (* residual stress on the inputs in SET polarity; the IMPLY-style driver
     halves it (V_COND < V_SET), leaving nominal operation disturb-free
     while variation can still push it over the threshold *)
  Device.apply_across d1 ((v0n -. v_n) /. 2.0);
  Device.apply_across d2 ((v0n -. v_n) /. 2.0);
  v_n

(* The one electrical model of every cycle kind, shared by [apply] and
   [apply_observed]. Returns the MAGIC node voltage (0 for V-op and read
   cycles), which only the observation needs. *)
let pulse t = function
  | Vop { te; be } ->
    let v_be = v_be_of t be in
    Array.iteri
      (fun i d -> Device.apply_across d (v_te_of t ~te ~be i -. v_be))
      t.devices;
    0.0
  | Nor { in1; in2; out } -> magic_nor t ~in1 ~in2 ~out
  | Nimp { in1; in2; out } -> magic_nimp t ~in1 ~in2 ~out
  | Read i ->
    ignore (device t i);
    0.0

let apply t cycle = ignore (pulse t cycle)

let obs ~v_te ~v_be d =
  let r = Device.resistance d in
  { v_te; v_be; resistance = r; current = Float.abs ((v_te -. v_be) /. r) }

let idle d = obs ~v_te:0.0 ~v_be:0.0 d

let apply_observed t cycle =
  let v_n = pulse t cycle in
  match cycle with
  | Vop { te; be } ->
    let v_be = v_be_of t be in
    Array.mapi (fun i d -> obs ~v_te:(v_te_of t ~te ~be i) ~v_be d) t.devices
  | Nor { in1; in2; out } ->
    Array.mapi
      (fun i d ->
        if i = out then obs ~v_te:(t.v0 -. v_n) ~v_be:(t.v0 -. v_n -. v_n) d
        else if i = in1 || i = in2 then obs ~v_te:t.v0 ~v_be:v_n d
        else idle d)
      t.devices
  | Nimp { in1; in2; out } ->
    Array.mapi
      (fun i d ->
        if i = out then obs ~v_te:v_n ~v_be:0.0 d
        else if i = in1 || i = in2 then obs ~v_te:(v0_nimp t) ~v_be:v_n d
        else idle d)
      t.devices
  | Read cell ->
    let vr = t.params.Device.v_read in
    Array.mapi
      (fun j d -> if j = cell then obs ~v_te:vr ~v_be:0.0 d else idle d)
      t.devices

let read t i =
  let d = device t i in
  let current = Device.read_current d in
  (Device.state d, current)

let total_switches t =
  Array.fold_left (fun acc d -> acc + Device.switch_count d) 0 t.devices
