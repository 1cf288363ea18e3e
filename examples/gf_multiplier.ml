(* The paper's flagship demonstration end to end: the GF(2^2) multiplier of
   Fig. 1 executed on a simulated 10-cell BiFeO3 line array, reproducing the
   Fig. 2 measurement for input x1x2x3x4 = 1011 (a = 10b, b = 11b).

   Run with: dune exec examples/gf_multiplier.exe *)

module Gf = Mm_boolfun.Gf
module Circuit = Mm_core.Circuit
module Reference = Mm_core.Reference
module Schedule = Mm_core.Schedule
module Waveform = Mm_device.Waveform

let () =
  let circuit = Reference.gf4_mul_circuit () in
  let spec = Gf.mul_spec 2 in

  Format.printf "The mixed-mode GF(2^2) multiplier (Fig. 1):@.%a@.@."
    Circuit.pp circuit;
  Format.printf
    "N_V = %d V-ops on %d legs (%d parallel steps), N_R = %d NORs, %d devices.@.@."
    (Circuit.n_vops circuit) (Circuit.n_legs circuit)
    (Circuit.steps_per_leg circuit) (Circuit.n_rops circuit)
    (Circuit.n_devices circuit);

  (* functional check against field arithmetic *)
  (match Circuit.realizes circuit spec with
   | Ok () -> print_endline "Functionally verified against GF(2^2) arithmetic."
   | Error row -> Format.printf "MISMATCH on input row %d!@." row);

  (* the Fig. 2 run: a = 10b = x (element 2), b = 11b = x+1 (element 3);
     x * (x+1) = x^2 + x = 1, so out1 (MSB) = 0 and out2 (LSB) = 1 *)
  let plan = Schedule.plan circuit in
  let run, waveform = Schedule.trace plan ~input:0b1011 () in
  Format.printf "@.Electrical trace for input 1011 (Fig. 2):@.%a@.@."
    Waveform.pp waveform;
  Format.printf "Readout after %d cycles: out1 = %b, out2 = %b (expected 0, 1)@."
    run.Schedule.cycles run.Schedule.outputs.(0) run.Schedule.outputs.(1);

  (* all 16 field products through the hardware model *)
  print_newline ();
  print_endline "Full multiplication table through the simulator:";
  for a = 0 to 3 do
    for b = 0 to 3 do
      let input = (a lsl 2) lor b in
      let r = Schedule.execute plan ~input () in
      let product =
        (if r.Schedule.outputs.(0) then 2 else 0)
        + if r.Schedule.outputs.(1) then 1 else 0
      in
      Printf.printf "  %d * %d = %d%s" a b product
        (if product = Gf.mul 2 a b then "" else "  <-- WRONG")
    done;
    print_newline ()
  done;

  (* export the netlist *)
  let path = "gf4_multiplier.dot" in
  let oc = open_out path in
  output_string oc (Mm_core.Emit.to_dot circuit);
  close_out oc;
  Printf.printf "\nGraphviz netlist written to %s\n" path
