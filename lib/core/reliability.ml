module Spec = Mm_boolfun.Spec
module Variation = Mm_device.Variation
module Line_array = Mm_device.Line_array
module Device = Mm_device.Device
module Waveform = Mm_device.Waveform

type point = { variation : Variation.t; mm_error : float; r_only_error : float }

type study = {
  spec_name : string;
  mm_circuit : Circuit.t;
  r_only_circuit : Circuit.t;
  points : point list;
}

let run spec ~mm ~r_only ~trials ~seed =
  let mm_plan = Schedule.plan mm in
  let r_plan = Schedule.plan r_only in
  let points =
    List.map
      (fun variation ->
        {
          variation;
          mm_error = Schedule.error_rate mm_plan spec ~variation ~trials ~seed;
          r_only_error = Schedule.error_rate r_plan spec ~variation ~trials ~seed;
        })
      Variation.sweep
  in
  { spec_name = Spec.name spec; mm_circuit = mm; r_only_circuit = r_only; points }

(* A switch is a change of a cell's logical state (LRS below the geometric
   mean of the nominal resistances) between consecutive recorded cycles. *)
let max_switches_per_run c =
  let plan = Schedule.plan c in
  let n = c.Circuit.arity in
  let p = Device.default_params in
  let mid = sqrt (p.Device.r_lrs *. p.Device.r_hrs) in
  let worst = ref 0 in
  for input = 0 to (1 lsl n) - 1 do
    let _, wf = Schedule.trace plan ~input () in
    let switches = ref 0 in
    let prev = ref None in
    List.iter
      (fun { Waveform.cells; _ } ->
        let states =
          Array.map (fun cell -> cell.Line_array.resistance < mid) cells
        in
        (match !prev with
         | Some old ->
           Array.iteri (fun i s -> if s <> old.(i) then incr switches) states
         | None -> ());
        prev := Some states)
      (Waveform.rows wf);
    worst := max !worst !switches
  done;
  !worst
