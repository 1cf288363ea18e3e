module Yield = Mm_core.Yield
module C = Mm_core.Circuit
module Sch = Mm_core.Schedule
module Expr = Mm_boolfun.Expr
module Arith = Mm_boolfun.Arith

let spec_of name exprs = Expr.spec ~name (List.map Expr.parse_exn exprs)

let test_healthy_cells () =
  Alcotest.(check int) "count" 7 (Yield.healthy_cells ~size:10 ~broken:[ 0; 4; 9 ]);
  Alcotest.(check int) "dedup" 9 (Yield.healthy_cells ~size:10 ~broken:[ 3; 3 ]);
  Alcotest.(check int) "out of range ignored" 10
    (Yield.healthy_cells ~size:10 ~broken:[ -1; 10 ])

let test_fit_generous () =
  (* xor2 fits easily with plenty of cells: expect minimal R usage *)
  let spec = spec_of "xor2" [ "x1 ^ x2" ] in
  match Yield.fit ~timeout_per_call:30. spec ~healthy_cells:8 with
  | Some f ->
    Alcotest.(check bool) "within budget" true (f.Yield.devices_used <= 8);
    (match C.realizes f.Yield.circuit spec with
     | Ok () -> ()
     | Error row -> Alcotest.failf "wrong on row %d" row);
    (* with literal R inputs disabled the device formula is exact *)
    Alcotest.(check int) "devices = legs + rops" f.Yield.devices_used
      (C.n_devices f.Yield.circuit)
  | None -> Alcotest.fail "expected a fit"

let test_fit_tight () =
  (* xor2 = NOR(leg, leg): 3 devices minimum with literal inputs off *)
  let spec = spec_of "xor2" [ "x1 ^ x2" ] in
  (match Yield.fit ~timeout_per_call:30. spec ~healthy_cells:3 with
   | Some f ->
     Alcotest.(check bool) "3 cells suffice" true (f.Yield.devices_used <= 3);
     let plan = Sch.plan f.Yield.circuit in
     Alcotest.(check (list int)) "electrically clean" []
       (Sch.verify plan spec)
   | None -> Alcotest.fail "3 healthy cells should suffice for xor2");
  (* 2 cells cannot host NOR output + two distinct leg inputs... but
     NOR(leg, leg-same)?? XOR needs two different functions, so 2 cells
     must fail *)
  match Yield.fit ~timeout_per_call:30. ~max_rops:4 spec ~healthy_cells:2 with
  | Some f -> Alcotest.failf "unexpected fit with %d devices" f.Yield.devices_used
  | None -> ()

let test_fit_v_only_when_possible () =
  (* an AND-OR chain needs zero R-ops: one healthy cell is enough *)
  let spec = spec_of "chain" [ "(x1 | x2) & x3" ] in
  match Yield.fit ~timeout_per_call:30. spec ~healthy_cells:1 with
  | Some f ->
    Alcotest.(check int) "no rops" 0 (C.n_rops f.Yield.circuit);
    Alcotest.(check int) "single device" 1 f.Yield.devices_used
  | None -> Alcotest.fail "one cell should suffice"

let test_fit_full_adder_paper_budget () =
  (* under physical leg-final taps the 1-bit adder needs 4 legs + 2
     R-outputs = 6 devices (see the tap-discipline finding). The search
     proves N_R = 0 UNSAT and finds N_R = 2 in well under the per-call
     budget, while N_R = 1 (5 legs) runs to its timeout at any budget, so
     the budget only bounds that one point. *)
  let fa = Arith.full_adder in
  match Yield.fit ~timeout_per_call:5. fa ~healthy_cells:6 with
  | Some f ->
    Alcotest.(check bool) "fits in 6" true (f.Yield.devices_used <= 6);
    (match C.realizes f.Yield.circuit fa with
     | Ok () -> ()
     | Error row -> Alcotest.failf "wrong on row %d" row)
  | None -> Alcotest.fail "expected a fit"

let test_no_healthy () =
  Alcotest.check_raises "zero cells" (Invalid_argument "Yield.fit: no healthy cells")
    (fun () ->
      ignore (Yield.fit (spec_of "f" [ "x1" ]) ~healthy_cells:0))

let () =
  Alcotest.run "yield"
    [
      ( "yield",
        [
          Alcotest.test_case "healthy cells" `Quick test_healthy_cells;
          Alcotest.test_case "generous budget" `Quick test_fit_generous;
          Alcotest.test_case "tight budget" `Slow test_fit_tight;
          Alcotest.test_case "v-only single cell" `Quick test_fit_v_only_when_possible;
          Alcotest.test_case "full adder budget" `Slow test_fit_full_adder_paper_budget;
          Alcotest.test_case "no healthy cells" `Quick test_no_healthy;
        ] );
    ]
