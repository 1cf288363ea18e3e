module Crossbar = Mm_device.Crossbar
module Rng = Mm_device.Rng

(* --- raw crossbar --- *)

let make_xb rows cols = Crossbar.create ~rng:(Rng.create 11) ~rows ~cols ()

let test_create_and_state () =
  let xb = make_xb 3 4 in
  Alcotest.(check int) "rows" 3 (Crossbar.rows xb);
  Alcotest.(check int) "cols" 4 (Crossbar.cols xb);
  Crossbar.set_state xb ~row:1 ~col:2 true;
  Alcotest.(check bool) "set" true (Crossbar.states xb).(1).(2);
  Alcotest.(check bool) "others untouched" false (Crossbar.states xb).(0).(2);
  Alcotest.check_raises "range" (Invalid_argument "Crossbar: row out of range")
    (fun () -> ignore (Crossbar.device xb ~row:3 ~col:0))

let test_row_vop () =
  let xb = make_xb 2 3 in
  Crossbar.vop_cycle_row xb ~row:0 ~te:(fun _ -> Some true) ~be:false;
  Alcotest.(check (list bool)) "row 0 set" [ true; true; true ]
    (Array.to_list (Crossbar.states xb).(0));
  Alcotest.(check (list bool)) "row 1 idle" [ false; false; false ]
    (Array.to_list (Crossbar.states xb).(1))

let test_parallel_nor () =
  let xb = make_xb 3 3 in
  (* row 0: NOR(0,0) = 1; row 1: NOR(1,0) = 0; both in one cycle *)
  Crossbar.set_state xb ~row:0 ~col:2 true;
  Crossbar.set_state xb ~row:1 ~col:0 true;
  Crossbar.set_state xb ~row:1 ~col:2 true;
  Crossbar.parallel_magic_nor xb [ (0, 0, 1, 2); (1, 0, 1, 2) ];
  Alcotest.(check bool) "nor(0,0)" true (Crossbar.states xb).(0).(2);
  Alcotest.(check bool) "nor(1,0)" false (Crossbar.states xb).(1).(2)

let test_row_clash_rejected () =
  let xb = make_xb 2 6 in
  Alcotest.check_raises "clash"
    (Invalid_argument "Crossbar.parallel_magic_nor: two gates share a row")
    (fun () -> Crossbar.parallel_magic_nor xb [ (0, 0, 1, 2); (0, 3, 4, 5) ])

let test_transfer () =
  let xb = make_xb 2 2 in
  Crossbar.set_state xb ~row:0 ~col:1 true;
  Crossbar.transfer xb ~src:(0, 1) ~dst:(1, 0);
  Alcotest.(check bool) "copied" true (Crossbar.states xb).(1).(0);
  Alcotest.(check bool) "source intact" true (Crossbar.states xb).(0).(1)

let test_in_out_collision_rejected () =
  let xb = make_xb 2 4 in
  Alcotest.check_raises "collision"
    (Invalid_argument
       "Crossbar.parallel_magic_nor: gate output column collides with an \
        input column")
    (fun () -> Crossbar.parallel_magic_nor xb [ (0, 0, 1, 1) ]);
  (* validation runs before any gate fires: a good gate batched with a bad
     one must not have executed *)
  Crossbar.set_state xb ~row:1 ~col:3 true;
  (try
     Crossbar.parallel_magic_nor xb [ (1, 0, 1, 3); (0, 2, 0, 2) ]
   with Invalid_argument _ -> ());
  Alcotest.(check bool) "no partial mutation" true
    (Crossbar.states xb).(1).(3);
  Alcotest.(check int) "no cycle counted" 0
    (Crossbar.counts xb).Crossbar.r_cycles;
  (* in1 = in2 is the 2-device MAGIC NOT, still legal *)
  Crossbar.set_state xb ~row:0 ~col:0 true;
  Crossbar.set_state xb ~row:0 ~col:2 true (* output preset *);
  Crossbar.parallel_magic_nor xb [ (0, 0, 0, 2) ];
  Alcotest.(check bool) "not(1) = 0" false (Crossbar.states xb).(0).(2)

let test_transfer_endurance () =
  (* the transfer's rewrite is a genuine pulse: it wears the destination
     out, and an endurance-exhausted destination keeps its stale value *)
  let params =
    { Mm_device.Device.default_params with endurance = Some 1 }
  in
  let xb = Crossbar.create ~rng:(Rng.create 7) ~rows:2 ~cols:2 ~params () in
  Crossbar.set_state xb ~row:0 ~col:0 true;
  Crossbar.set_state xb ~row:0 ~col:1 false;
  Crossbar.transfer xb ~src:(0, 0) ~dst:(1, 0);
  Alcotest.(check bool) "first rewrite lands" true
    (Crossbar.states xb).(1).(0);
  Crossbar.transfer xb ~src:(0, 1) ~dst:(1, 0);
  Alcotest.(check bool) "worn destination keeps its old value" true
    (Crossbar.states xb).(1).(0);
  Alcotest.(check int) "both moves still counted" 2
    (Crossbar.counts xb).Crossbar.transfers

let test_parallel_nor_d2d_independence () =
  (* same-cycle NORs on distinct rows must compute exactly what the same
     gates compute fired one per cycle, even with device-to-device spread *)
  let params = { Mm_device.Device.default_params with sigma_d2d = 0.25 } in
  let mk () =
    Crossbar.create ~rng:(Rng.create 42) ~rows:2 ~cols:3 ~params ()
  in
  List.iter
    (fun (a0, b0, a1, b1) ->
      let init xb =
        Crossbar.set_state xb ~row:0 ~col:0 a0;
        Crossbar.set_state xb ~row:0 ~col:1 b0;
        Crossbar.set_state xb ~row:0 ~col:2 true;
        Crossbar.set_state xb ~row:1 ~col:0 a1;
        Crossbar.set_state xb ~row:1 ~col:1 b1;
        Crossbar.set_state xb ~row:1 ~col:2 true
      in
      let together = mk () in
      init together;
      Crossbar.parallel_magic_nor together [ (0, 0, 1, 2); (1, 0, 1, 2) ];
      let alone = mk () in
      init alone;
      Crossbar.parallel_magic_nor alone [ (0, 0, 1, 2) ];
      Crossbar.parallel_magic_nor alone [ (1, 0, 1, 2) ];
      Alcotest.(check bool) "row 0 independent"
        (Crossbar.states alone).(0).(2)
        (Crossbar.states together).(0).(2);
      Alcotest.(check bool) "row 1 independent"
        (Crossbar.states alone).(1).(2)
        (Crossbar.states together).(1).(2);
      Alcotest.(check bool) "row 0 = nor"
        (not (a0 || b0))
        (Crossbar.states together).(0).(2);
      Alcotest.(check bool) "row 1 = nor"
        (not (a1 || b1))
        (Crossbar.states together).(1).(2))
    [ (false, false, true, false); (true, true, false, false);
      (false, true, false, false) ]

let test_vop_rows_duplicate_rejected () =
  let xb = make_xb 3 2 in
  Alcotest.check_raises "duplicate row"
    (Invalid_argument "Crossbar.vop_cycle_rows: row listed twice")
    (fun () ->
      Crossbar.vop_cycle_rows xb
        ~active:[ (0, false); (0, true) ]
        ~te:(fun _ -> Some true));
  (* broadcast: the pattern lands on every active row, floaters untouched *)
  Crossbar.vop_cycle_rows xb
    ~active:[ (0, false); (2, false) ]
    ~te:(fun col -> if col = 1 then Some true else None);
  Alcotest.(check bool) "row 0 written" true (Crossbar.states xb).(0).(1);
  Alcotest.(check bool) "row 2 written" true (Crossbar.states xb).(2).(1);
  Alcotest.(check bool) "row 1 floats" false (Crossbar.states xb).(1).(1)

let () =
  Alcotest.run "xbar"
    [
      ( "crossbar",
        [
          Alcotest.test_case "create/state" `Quick test_create_and_state;
          Alcotest.test_case "row vop" `Quick test_row_vop;
          Alcotest.test_case "parallel nor" `Quick test_parallel_nor;
          Alcotest.test_case "row clash" `Quick test_row_clash_rejected;
          Alcotest.test_case "transfer" `Quick test_transfer;
          Alcotest.test_case "in/out collision" `Quick
            test_in_out_collision_rejected;
          Alcotest.test_case "transfer endurance" `Quick
            test_transfer_endurance;
          Alcotest.test_case "parallel nor under d2d" `Quick
            test_parallel_nor_d2d_independence;
          Alcotest.test_case "vop duplicate row" `Quick
            test_vop_rows_duplicate_rejected;
        ] );
    ]
