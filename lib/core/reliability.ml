module Spec = Mm_boolfun.Spec
module Variation = Mm_device.Variation
module Line_array = Mm_device.Line_array

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

let max_switches_per_run c =
  let plan = Schedule.plan c in
  let n = c.Circuit.arity in
  let worst = ref 0 in
  for input = 0 to (1 lsl n) - 1 do
    let r = Schedule.execute plan ~input () in
    (* switches are not exposed directly on the run; recompute via a fresh
       execution counting waveform length as a proxy is wrong — instead
       count state changes across waveform rows. *)
    let rows = Mm_device.Waveform.rows r.Schedule.waveform in
    let switches = ref 0 in
    let prev = ref None in
    List.iter
      (fun { Mm_device.Waveform.cells; _ } ->
        let states =
          Array.map
            (fun cell ->
              cell.Line_array.resistance
              < sqrt
                  (Mm_device.Device.default_params.Mm_device.Device.r_lrs
                  *. Mm_device.Device.default_params.Mm_device.Device.r_hrs))
            cells
        in
        (match !prev with
         | Some old ->
           Array.iteri (fun i s -> if s <> old.(i) then incr switches) states
         | None -> ());
        prev := Some states)
      rows;
    worst := max !worst !switches
  done;
  !worst
