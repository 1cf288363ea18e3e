module S = Mm_core.Synth
module E = Mm_core.Encode
module C = Mm_core.Circuit
module B = Mm_core.Baseline
module Metrics = Mm_core.Metrics
module Spec = Mm_boolfun.Spec
module Expr = Mm_boolfun.Expr
module Arith = Mm_boolfun.Arith

let spec_of ?n name exprs = Expr.spec ~name ?n (List.map Expr.parse_exn exprs)

let test_default_legs () =
  let fa = Arith.full_adder in
  Alcotest.(check int) "N_R + N_O" 4 (S.default_legs fa ~n_rops:2);
  Alcotest.(check int) "adder variant" 3 (S.default_legs ~adder:true fa ~n_rops:2)

let test_minimize_xor2 () =
  (* XOR needs exactly one NOR (plus V-legs); minimize must find N_R = 1
     with an optimality certificate for N_R = 0. *)
  let xor = spec_of "xor2" [ "x1 ^ x2" ] in
  let r = S.minimize ~timeout_per_call:30. ~max_steps:3 xor in
  (match r.S.best with
   | Some (c, a) ->
     Alcotest.(check int) "minimal N_R" 1 (C.n_rops c);
     Alcotest.(check int) "attempt agrees" 1 a.S.n_rops
   | None -> Alcotest.fail "expected a circuit");
  Alcotest.(check bool) "N_R proven minimal" true r.S.rops_proven_minimal;
  Alcotest.(check bool) "steps proven minimal" true r.S.steps_proven_minimal;
  (* the attempt log starts at N_R = 0 (UNSAT) *)
  match r.S.attempts with
  | first :: _ ->
    Alcotest.(check int) "first try N_R=0" 0 first.S.n_rops;
    Alcotest.(check bool) "was UNSAT" true
      (match first.S.verdict with S.Unsat -> true | S.Sat _ | S.Timeout -> false)
  | [] -> Alcotest.fail "no attempts logged"

let test_minimize_v_realizable () =
  (* AND-OR chains need zero R-ops *)
  let spec = spec_of "chain" [ "(x1 | x2) & x3" ] in
  let r = S.minimize ~timeout_per_call:30. ~max_steps:4 spec in
  match r.S.best with
  | Some (c, _) -> Alcotest.(check int) "no R-ops" 0 (C.n_rops c)
  | None -> Alcotest.fail "expected a circuit"

let test_minimize_full_adder_paper_row () =
  (* Table IV row 1: 1-bit adder, MM: N_R=2, N_L=3, N_VS=3, N_St=5 *)
  let fa = Arith.full_adder in
  let r =
    S.minimize ~timeout_per_call:120. ~max_steps:3
      ~legs_of:(fun n_rops -> S.default_legs ~adder:true fa ~n_rops)
      fa
  in
  match r.S.best with
  | Some (c, _) ->
    Alcotest.(check int) "N_R" 2 (C.n_rops c);
    Alcotest.(check int) "N_L" 3 (C.n_legs c);
    Alcotest.(check int) "N_VS" 3 (C.steps_per_leg c);
    Alcotest.(check int) "N_St" 5 (C.n_steps c);
    Alcotest.(check bool) "rops proven" true r.S.rops_proven_minimal
  | None -> Alcotest.fail "expected a circuit"

let test_minimize_r_only_not () =
  (* ¬x1 is a literal — the optimal R-only realization has zero gates *)
  let spec = spec_of "not1" [ "~x1" ] in
  let r = S.minimize_r_only ~timeout_per_call:30. spec in
  match r.S.best with
  | Some (c, _) ->
    Alcotest.(check int) "zero NORs" 0 (C.n_rops c);
    Alcotest.(check int) "no legs" 0 (C.n_legs c)
  | None -> Alcotest.fail "expected a circuit"

let test_minimize_r_only_and2 () =
  let spec = spec_of "and2" [ "x1 & x2" ] in
  let r = S.minimize_r_only ~timeout_per_call:30. spec in
  match r.S.best with
  | Some (c, _) -> Alcotest.(check int) "AND = NOR(~x1,~x2)" 1 (C.n_rops c)
  | None -> Alcotest.fail "expected a circuit"

let test_timeout_verdict () =
  (* a hard instance with a microscopic budget must report Timeout, not
     block or mis-answer *)
  let spec = Mm_boolfun.Gf.mul_spec 2 in
  let a =
    S.solve_instance ~timeout:0.05
      (E.config ~taps:E.Any_vop ~n_legs:6 ~steps_per_leg:3 ~n_rops:4 ())
      spec
  in
  match a.S.verdict with
  | S.Timeout -> ()
  | S.Sat _ -> () (* a very fast machine may legitimately finish *)
  | S.Unsat -> Alcotest.fail "must not be UNSAT"

let test_attempt_pp () =
  let spec = spec_of "and2" [ "x1 & x2" ] in
  let a = S.solve_instance ~timeout:30. (E.config ~n_legs:1 ~steps_per_leg:2 ~n_rops:0 ()) spec in
  let s = Format.asprintf "%a" S.pp_attempt a in
  Alcotest.(check bool) "mentions SAT" true
    (String.length s > 0 &&
     (let contains h n =
        let nh = String.length h and nn = String.length n in
        let rec go i = i + nn <= nh && (String.sub h i nn = n || go (i + 1)) in
        go 0
      in
      contains s "SAT"))

(* --- incremental ladder vs monolithic oracle, symmetry breaking --- *)

module L = Mm_core.Ladder

let verdict_tag = function
  | S.Sat _ -> "sat"
  | S.Unsat -> "unsat"
  | S.Timeout -> "timeout"

(* the per-point trace of a sweep: dimensions and verdict of every attempt,
   in order — two equivalent paths must agree on all of it *)
let trace r =
  List.map
    (fun a ->
      ((a.S.n_rops, a.S.n_legs), (a.S.steps_per_leg, verdict_tag a.S.verdict)))
    r.S.attempts

let fingerprint r =
  ( (match r.S.best with
     | Some (_, a) -> Some (a.S.n_rops, a.S.n_legs, a.S.steps_per_leg)
     | None -> None),
    r.S.rops_proven_minimal,
    r.S.steps_proven_minimal )

let pin_specs =
  [ ("xor2", [ "x1 ^ x2" ]);
    ("chain", [ "(x1 | x2) & x3" ]);
    ("mux", [ "(x1 & x2) | (~x1 & x3)" ]);
    ("and2", [ "x1 & x2" ]) ]

let test_symmetry_equivalence () =
  (* symmetry breaking prunes equivalent models only: same verdicts, same
     minima, same proof flags, with and without *)
  List.iter
    (fun (name, exprs) ->
      let spec = spec_of name exprs in
      let run sb =
        S.minimize ~timeout_per_call:30. ~max_steps:3 ~symmetry_breaking:sb
          spec
      in
      let on = run true and off = run false in
      Alcotest.(check (list (pair (pair int int) (pair int string))))
        (name ^ ": same trace") (trace off) (trace on);
      Alcotest.(check bool) (name ^ ": same outcome") true
        (fingerprint on = fingerprint off))
    pin_specs

let test_incremental_vs_monolithic () =
  (* the assumption ladder must be byte-identical to the fresh-solver
     oracle on verdicts and minima — the in-process half of the
     smoke-ladder differential gate *)
  List.iter
    (fun (name, exprs) ->
      let spec = spec_of name exprs in
      let run inc =
        S.minimize ~timeout_per_call:30. ~max_steps:3 ~incremental:inc spec
      in
      let inc = run true and mono = run false in
      Alcotest.(check (list (pair (pair int int) (pair int string))))
        (name ^ ": same trace") (trace mono) (trace inc);
      Alcotest.(check bool) (name ^ ": same outcome") true
        (fingerprint inc = fingerprint mono))
    pin_specs

let test_incremental_r_only () =
  List.iter
    (fun (name, exprs) ->
      let spec = spec_of name exprs in
      let run inc =
        S.minimize_r_only ~timeout_per_call:30. ~incremental:inc spec
      in
      let inc = run true and mono = run false in
      Alcotest.(check (list (pair (pair int int) (pair int string))))
        (name ^ ": same trace") (trace mono) (trace inc))
    [ ("not1", [ "~x1" ]); ("and2", [ "x1 & x2" ]); ("xor2", [ "x1 ^ x2" ]) ]

let test_r_only_cache_hooks () =
  (* minimize_r_only must consult lookup and report fresh results to store *)
  let spec = spec_of "and2" [ "x1 & x2" ] in
  let stored : (E.config * S.attempt) list ref = ref [] in
  let lookups = ref 0 in
  let r =
    S.minimize_r_only ~timeout_per_call:30.
      ~lookup:(fun _ -> incr lookups; None)
      ~store:(fun cfg a -> stored := (cfg, a) :: !stored)
      spec
  in
  Alcotest.(check bool) "found" true (r.S.best <> None);
  Alcotest.(check bool) "lookup consulted" true (!lookups > 0);
  Alcotest.(check int) "every attempt stored" (List.length r.S.attempts)
    (List.length !stored);
  (* a second sweep answered entirely from the store performs no solving *)
  let table = !stored in
  let r2 =
    S.minimize_r_only ~timeout_per_call:30.
      ~lookup:(fun cfg -> List.assoc_opt cfg table)
      ~store:(fun _ _ -> Alcotest.fail "store called on a full cache")
      spec
  in
  Alcotest.(check (list (pair (pair int int) (pair int string)))) "same trace from cache"
    (trace r) (trace r2)

let test_ladder_direct () =
  let xor = spec_of "xor2" [ "x1 ^ x2" ] in
  let l = L.create ~taps:E.Any_vop ~max_legs:3 ~max_steps:3 ~max_rops:2 xor in
  let a0 = L.solve_point ~timeout:30. l ~n_legs:1 ~steps:3 ~n_rops:0 in
  (match a0.L.verdict with
   | L.Unsat -> ()
   | L.Sat _ | L.Timeout -> Alcotest.fail "XOR without R-ops must be UNSAT");
  Alcotest.(check bool) "certificate recorded" true (L.certificates l >= 1);
  (* a point covered by a recorded certificate is refuted without solving *)
  let a0' = L.solve_point ~timeout:30. l ~n_legs:1 ~steps:3 ~n_rops:0 in
  (match a0'.L.verdict with
   | L.Unsat -> ()
   | L.Sat _ | L.Timeout -> Alcotest.fail "covered point must stay UNSAT");
  Alcotest.(check int) "no decisions on the covered point" 0
    a0'.L.solver_stats.Mm_sat.Solver.decisions;
  (* the SAT point decodes to a prefix-dimension circuit that realizes f *)
  let a1 = L.solve_point ~timeout:30. l ~n_legs:2 ~steps:3 ~n_rops:1 in
  (match a1.L.verdict with
   | L.Sat c ->
     Alcotest.(check int) "decoded N_R" 1 (C.n_rops c);
     Alcotest.(check bool) "decoded within prefix" true (C.n_legs c <= 2)
   | L.Unsat | L.Timeout -> Alcotest.fail "XOR with one NOR must be SAT");
  (* dimensions beyond the encoding are rejected *)
  (try
     ignore (L.solve_point l ~n_legs:9 ~steps:3 ~n_rops:1);
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument _ -> ())

(* --- metrics --- *)

let test_metrics () =
  Alcotest.(check int) "steps" 7 (Metrics.steps ~n_vs:3 ~n_rops:4);
  Alcotest.(check int) "paper devices" 10 (Metrics.devices_paper ~n_rops:4 ~n_outputs:2);
  let gf = Mm_core.Reference.gf4_mul_circuit () in
  Alcotest.(check int) "structural devices" 10 (Metrics.devices gf);
  Alcotest.(check int) "cycles with readout" 9 (Metrics.cycles_with_readout gf);
  (* Table V literature data is complete for [16],[18],[19],[20] at 1..3 bits *)
  List.iter
    (fun src ->
      List.iter
        (fun bits ->
          Alcotest.(check bool)
            (Printf.sprintf "%s n=%d present" src bits)
            true
            (List.exists
               (fun e -> e.Metrics.source = src && e.Metrics.bits = bits)
               Metrics.literature_adders))
        [ 1; 2; 3 ])
    [ "[16]"; "[18]"; "[19]"; "[20]" ]

let () =
  Alcotest.run "synth"
    [
      ( "driver",
        [
          Alcotest.test_case "default legs" `Quick test_default_legs;
          Alcotest.test_case "minimize xor2" `Slow test_minimize_xor2;
          Alcotest.test_case "minimize V-realizable" `Slow test_minimize_v_realizable;
          Alcotest.test_case "1-bit adder = paper row" `Slow
            test_minimize_full_adder_paper_row;
          Alcotest.test_case "r-only NOT" `Quick test_minimize_r_only_not;
          Alcotest.test_case "r-only AND2" `Quick test_minimize_r_only_and2;
          Alcotest.test_case "timeout verdict" `Quick test_timeout_verdict;
          Alcotest.test_case "pp_attempt" `Quick test_attempt_pp;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "symmetry on/off equivalent" `Slow
            test_symmetry_equivalence;
          Alcotest.test_case "incremental = monolithic" `Slow
            test_incremental_vs_monolithic;
          Alcotest.test_case "incremental r-only" `Quick
            test_incremental_r_only;
          Alcotest.test_case "r-only cache hooks" `Quick
            test_r_only_cache_hooks;
          Alcotest.test_case "ladder direct" `Quick test_ladder_direct;
        ] );
      ("metrics", [ Alcotest.test_case "formulas and Table V" `Quick test_metrics ]);
    ]
