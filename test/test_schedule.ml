module Sch = Mm_core.Schedule
module C = Mm_core.Circuit
module Rop = Mm_core.Rop
module Reference = Mm_core.Reference
module Reliability = Mm_core.Reliability
module Baseline = Mm_core.Baseline
module Literal = Mm_boolfun.Literal
module Arith = Mm_boolfun.Arith
module Gf = Mm_boolfun.Gf
module Spec = Mm_boolfun.Spec
module Variation = Mm_device.Variation
module Rng = Mm_device.Rng

let vop te be = { C.te; be }

let xor2_circuit () =
  C.make ~arity:2
    ~legs:
      [|
        [| vop (Literal.Pos 1) Literal.Const0; vop (Literal.Pos 2) Literal.Const1 |];
        [| vop (Literal.Neg 1) Literal.Const0; vop (Literal.Neg 2) Literal.Const1 |];
      |]
    ~rops:[| { C.in1 = C.From_leg 0; in2 = C.From_leg 1 } |]
    ~outputs:[| C.From_rop 0 |]
    ()

let xor2_spec =
  Spec.of_fun ~name:"xor2" ~arity:2 ~outputs:1 (fun ~row ~output:_ ->
      Mm_boolfun.Truth_table.input_bit 2 row 1
      <> Mm_boolfun.Truth_table.input_bit 2 row 2)

let nimp_circuit () =
  C.make ~arity:2 ~rop_kind:Rop.Nimp ~legs:[||]
    ~rops:
      [|
        {
          C.in1 = C.From_literal (Literal.Pos 1);
          in2 = C.From_literal (Literal.Pos 2);
        };
      |]
    ~outputs:[| C.From_rop 0 |]
    ()

let nimp_spec =
  Spec.of_fun ~name:"nimp" ~arity:2 ~outputs:1 (fun ~row ~output:_ ->
      Mm_boolfun.Truth_table.input_bit 2 row 1
      && not (Mm_boolfun.Truth_table.input_bit 2 row 2))

let test_plan_roles () =
  let p = Sch.plan (xor2_circuit ()) in
  Alcotest.(check int) "cells" 3 (Sch.n_cells p);
  match Array.to_list (Sch.roles p) with
  | [ Sch.Leg_cell 0; Sch.Leg_cell 1; Sch.Rop_out_cell 0 ] -> ()
  | _ -> Alcotest.fail "unexpected role layout"

let test_literal_cells () =
  (* NOT(x1) = NOR(x1, const-0): two literal input cells *)
  let c =
    C.make ~arity:1 ~legs:[||]
      ~rops:
        [|
          {
            C.in1 = C.From_literal (Literal.Pos 1);
            in2 = C.From_literal Literal.Const0;
          };
        |]
      ~outputs:[| C.From_rop 0 |]
      ()
  in
  let p = Sch.plan c in
  Alcotest.(check int) "cells: 2 literal + 1 out" 3 (Sch.n_cells p);
  let spec =
    Spec.of_fun ~name:"not" ~arity:1 ~outputs:1 (fun ~row ~output:_ -> row = 0)
  in
  Alcotest.(check (list int)) "verified" [] (Sch.verify p spec)

let test_execute_cycles () =
  let p = Sch.plan (xor2_circuit ()) in
  let r = Sch.execute p ~input:0b10 () in
  (* 2 V steps + 1 R-op + 1 readout *)
  Alcotest.(check int) "cycles" 4 r.Sch.cycles;
  Alcotest.(check bool) "xor(1,0)" true r.Sch.outputs.(0)

let test_verify_references () =
  let p2 = Sch.plan (Reference.table2_circuit ()) in
  Alcotest.(check (list int)) "table2 clean" [] (Sch.verify p2 Arith.table2_spec);
  let pg = Sch.plan (Reference.gf4_mul_circuit ()) in
  Alcotest.(check (list int)) "gf mul clean" [] (Sch.verify pg (Gf.mul_spec 2))

let test_fig2_scenario () =
  (* the paper's experimental demonstration: input x1x2x3x4 = 1011 gives
     out1 = 0, out2 = 1 after 9 cycles on 10 cells *)
  let p = Sch.plan (Reference.gf4_mul_circuit ()) in
  Alcotest.(check int) "10 cells" 10 (Sch.n_cells p);
  let r, waveform = Sch.trace p ~input:0b1011 () in
  Alcotest.(check bool) "out1 = 0" false r.Sch.outputs.(0);
  Alcotest.(check bool) "out2 = 1" true r.Sch.outputs.(1);
  Alcotest.(check int) "9 cycles" 9 r.Sch.cycles;
  Alcotest.(check int) "waveform rows" 9 (Mm_device.Waveform.length waveform)

let test_nimp_schedulable () =
  (* NIMP(x1, x2) = x1 ∧ ¬x2 executed electrically via the IMPLY-style op *)
  let c = nimp_circuit () and spec = nimp_spec in
  (match C.realizes c spec with
   | Ok () -> ()
   | Error row -> Alcotest.failf "logic model wrong on row %d" row);
  let p = Sch.plan c in
  Alcotest.(check (list int)) "electrically clean" [] (Sch.verify p spec)

let test_unshared_be_rejected () =
  let c =
    C.make ~arity:2
      ~legs:
        [|
          [| vop (Literal.Pos 1) Literal.Const0 |];
          [| vop (Literal.Pos 2) Literal.Const1 |];
        |]
      ~rops:[||]
      ~outputs:[| C.From_leg 0; C.From_leg 1 |]
      ()
  in
  Alcotest.check_raises "rail conflict"
    (Invalid_argument "Schedule.plan: legs disagree on the shared BE rail")
    (fun () -> ignore (Sch.plan c))

let test_multi_tap_plan () =
  (* plans physicalize automatically *)
  let c = Reference.gf4_mul_circuit () in
  Alcotest.(check bool) "reference has intermediate taps" false
    (C.final_taps_only c);
  let p = Sch.plan c in
  Alcotest.(check bool) "planned circuit is physical" true
    (C.final_taps_only (Sch.circuit p))

let test_error_rates () =
  let p = Sch.plan (Reference.gf4_mul_circuit ()) in
  let spec = Gf.mul_spec 2 in
  let ideal = Sch.error_rate p spec ~variation:Variation.ideal ~trials:3 ~seed:1 in
  Alcotest.(check (float 0.0)) "ideal is error-free" 0.0 ideal;
  let harsh =
    Sch.error_rate p spec
      ~variation:{ Variation.label = "x"; sigma_d2d = 0.6; sigma_c2c = 0.6 }
      ~trials:3 ~seed:1
  in
  Alcotest.(check bool) "harsh variation causes errors" true (harsh > 0.0)

let test_error_rate_deterministic () =
  let p = Sch.plan (xor2_circuit ()) in
  let e1 = Sch.error_rate p xor2_spec ~variation:Variation.moderate ~trials:5 ~seed:7 in
  let e2 = Sch.error_rate p xor2_spec ~variation:Variation.moderate ~trials:5 ~seed:7 in
  Alcotest.(check (float 0.0)) "same seed same estimate" e1 e2

(* [execute] applies pulses only and [trace] also observes them; both run
   the same row simulator, so on every row they must read back the same
   outputs — under nominal devices, under variation (same seeded rng) and
   with an injected fault. *)
let test_execute_matches_trace () =
  let harsh = Variation.apply Variation.harsh Mm_device.Device.default_params in
  List.iter
    (fun (name, c) ->
      let p = Sch.plan c in
      (* cells are legs first, then R-op outputs: break the first R-op *)
      let faults =
        [ (C.n_legs (Sch.circuit p), Mm_device.Device.Stuck_at false) ]
      in
      for input = 0 to (1 lsl c.C.arity) - 1 do
        let same what (a : Sch.run) ((b : Sch.run), wf) =
          let where = Printf.sprintf "%s row %d %s" name input what in
          Alcotest.(check (array bool))
            (where ^ " outputs") a.Sch.outputs b.Sch.outputs;
          Alcotest.(check int) (where ^ " cycles") a.Sch.cycles b.Sch.cycles;
          Alcotest.(check int) (where ^ " recorded") a.Sch.cycles
            (Mm_device.Waveform.length wf)
        in
        same "nominal" (Sch.execute p ~input ()) (Sch.trace p ~input ());
        let seed = 1000 + input in
        same "variation"
          (Sch.execute ~params:harsh ~rng:(Rng.create seed) p ~input ())
          (Sch.trace ~params:harsh ~rng:(Rng.create seed) p ~input ());
        same "stuck-at"
          (Sch.execute ~faults p ~input ())
          (Sch.trace ~faults p ~input ())
      done)
    [
      ("gf4 mul", Reference.gf4_mul_circuit ());
      ("xor2", xor2_circuit ());
      ("nimp", nimp_circuit ());
      ("r-only maj3", Baseline.nor_network (Arith.majority 3));
    ]

(* Monte-Carlo estimates pinned to the values the simulator gave before its
   pulse-only path existed: the electrical model and every rng draw are
   unchanged, so these must match exactly. *)
let test_error_rate_pinned () =
  let gf = Sch.plan (Reference.gf4_mul_circuit ()) in
  let v = { Variation.label = "pinned"; sigma_d2d = 0.3; sigma_c2c = 0.3 } in
  Alcotest.(check (float 0.0)) "gf4 mul" 0.421875
    (Sch.error_rate gf (Gf.mul_spec 2) ~variation:v ~trials:4 ~seed:2024);
  let maj = Arith.majority 3 in
  Alcotest.(check (float 0.0)) "r-only maj3" (10. /. 24.)
    (Sch.error_rate (Sch.plan (Baseline.nor_network maj)) maj
       ~variation:Variation.harsh ~trials:3 ~seed:5);
  let v = { Variation.label = "pinned"; sigma_d2d = 0.6; sigma_c2c = 0.6 } in
  Alcotest.(check (float 0.0)) "nimp" 0.078125
    (Sch.error_rate (Sch.plan (nimp_circuit ())) nimp_spec ~variation:v
       ~trials:16 ~seed:9)

(* --- reliability study --- *)

let test_max_switches_pinned () =
  Alcotest.(check int) "gf4 mul" 9
    (Reliability.max_switches_per_run (Reference.gf4_mul_circuit ()));
  Alcotest.(check int) "r-only maj3" 4
    (Reliability.max_switches_per_run (Baseline.nor_network (Arith.majority 3)))

let test_rop_depth () =
  Alcotest.(check int) "gf ref depth 2" 2
    (C.rop_depth (Reference.gf4_mul_circuit ()));
  Alcotest.(check int) "xor2 depth 1" 1 (C.rop_depth (xor2_circuit ()));
  Alcotest.(check int) "v-only depth 0" 0
    (C.rop_depth (Reference.table2_circuit ()))

let test_reliability_study () =
  let mm = xor2_circuit () in
  let r_only = Baseline.nor_network xor2_spec in
  let study = Reliability.run xor2_spec ~mm ~r_only ~trials:2 ~seed:3 in
  Alcotest.(check int) "one point per sweep entry"
    (List.length Variation.sweep) (List.length study.Reliability.points);
  List.iter
    (fun pt ->
      Alcotest.(check bool) "rates in [0,1]" true
        (pt.Reliability.mm_error >= 0.0 && pt.Reliability.mm_error <= 1.0
        && pt.Reliability.r_only_error >= 0.0 && pt.Reliability.r_only_error <= 1.0))
    study.Reliability.points;
  (* ideal row of the sweep must be error-free for both *)
  match study.Reliability.points with
  | first :: _ ->
    Alcotest.(check (float 0.0)) "mm ideal" 0.0 first.Reliability.mm_error;
    Alcotest.(check (float 0.0)) "r-only ideal" 0.0 first.Reliability.r_only_error
  | [] -> Alcotest.fail "empty sweep"

let () =
  Alcotest.run "schedule"
    [
      ( "plan",
        [
          Alcotest.test_case "roles" `Quick test_plan_roles;
          Alcotest.test_case "literal cells" `Quick test_literal_cells;
          Alcotest.test_case "nimp schedulable" `Quick test_nimp_schedulable;
          Alcotest.test_case "unshared BE rejected" `Quick test_unshared_be_rejected;
          Alcotest.test_case "multi-tap physicalized" `Quick test_multi_tap_plan;
        ] );
      ( "execute",
        [
          Alcotest.test_case "cycles" `Quick test_execute_cycles;
          Alcotest.test_case "verify references" `Quick test_verify_references;
          Alcotest.test_case "Fig. 2 scenario" `Quick test_fig2_scenario;
          Alcotest.test_case "error rates" `Slow test_error_rates;
          Alcotest.test_case "deterministic" `Quick test_error_rate_deterministic;
          Alcotest.test_case "execute = trace" `Quick test_execute_matches_trace;
          Alcotest.test_case "error rate pinned" `Quick test_error_rate_pinned;
        ] );
      ( "reliability",
        [
          Alcotest.test_case "rop depth" `Quick test_rop_depth;
          Alcotest.test_case "study" `Slow test_reliability_study;
          Alcotest.test_case "max switches pinned" `Quick test_max_switches_pinned;
        ] );
    ]
