(* Mm_prove: portfolio, cube-and-conquer, orchestrator, and the solver /
   exchange machinery underneath them.

   The differential backbone: every portfolio or cube verdict must match
   the monolithic single-solver verdict on the same Encode instance. The
   cancellation tests pin the satellite requirements — an interrupted
   solver stays reusable, and a cancelled cube run never emits a partial
   certificate. *)

module Solver = Mm_sat.Solver
module Lit = Mm_sat.Lit
module Builder = Mm_cnf.Builder
module Exchange = Mm_cnf.Exchange
module Spec = Mm_boolfun.Spec
module Expr = Mm_boolfun.Expr
module E = Mm_core.Encode
module Synth = Mm_core.Synth
module Circuit = Mm_core.Circuit
module Portfolio = Mm_prove.Portfolio
module Cube = Mm_prove.Cube
module Prove = Mm_prove.Prove
module Engine = Mm_engine.Engine
module Json = Mm_report.Json

let spec_of name exprs = Expr.spec ~name (List.map Expr.parse_exn exprs)

(* (x1 & x2) | x3: SAT at (1 leg, 2 steps, 0 rops), UNSAT at (1, 1, 0) *)
let andor = spec_of "andor" [ "(x1 & x2) | x3" ]
let sat_cfg = E.config ~n_legs:1 ~steps_per_leg:2 ~n_rops:0 ()
let unsat_cfg = E.config ~n_legs:1 ~steps_per_leg:1 ~n_rops:0 ()

(* xor3 at a mixed point with an R-op: enough search to make stop polls
   actually fire mid-run *)
let xor3 = spec_of "xor3" [ "x1 ^ x2 ^ x3" ]
let xor3_cfg = E.config ~n_legs:2 ~steps_per_leg:3 ~n_rops:1 ()

let verdict_tag = function
  | Synth.Sat _ -> "SAT"
  | Synth.Unsat -> "UNSAT"
  | Synth.Timeout -> "TIMEOUT"

(* monolithic single-solver reference on the same instance *)
let reference ?config cfg spec =
  let config = Option.value config ~default:Solver.default_config in
  (Portfolio.replay ~config cfg spec).Synth.verdict

(* ---- solver: config determinism and stop-hook reusability ------------- *)

let solve_raw ?stop config cfg spec =
  let solver = Solver.create ~config () in
  let builder = Builder.create ~solver () in
  ignore (E.build builder cfg spec);
  let r = Solver.solve ?stop solver in
  (r, Solver.stats solver, solver)

let test_config_determinism () =
  let run () =
    let r, st, _ = solve_raw { Solver.default_config with seed = 7 } xor3_cfg xor3 in
    (r, st.Solver.conflicts, st.Solver.decisions, st.Solver.propagations)
  in
  Alcotest.(check bool) "identical runs" true (run () = run ());
  (* a diversified config must reach the same verdict *)
  let base, _, _ = solve_raw Solver.default_config xor3_cfg xor3 in
  Array.iter
    (fun (w : Portfolio.worker_config) ->
      let r, _, _ = solve_raw w.Portfolio.config xor3_cfg xor3 in
      Alcotest.(check bool)
        (Printf.sprintf "verdict stable under %s" w.Portfolio.label)
        true (r = base))
    (Portfolio.diversify ~n:6 ())

let test_diversify_table () =
  let t = Portfolio.diversify ~seed:3 ~n:8 () in
  Alcotest.(check int) "n configs" 8 (Array.length t);
  Alcotest.(check string) "worker 0 is the default" "default"
    t.(0).Portfolio.label;
  Alcotest.(check bool) "worker 0 differs only by seed" true
    (t.(0).Portfolio.config = { Solver.default_config with seed = 3 });
  Array.iteri
    (fun w (c : Portfolio.worker_config) ->
      Alcotest.(check int)
        (Printf.sprintf "worker %d seed" w)
        (3 + w) c.Portfolio.config.Solver.seed)
    t

(* An interrupted solve must return Unknown and leave the solver fully
   reusable: the next solve on the same instance reaches the reference
   verdict. Sweeping the poll count lands the interruption at different
   internal points (first propagation, mid-search, around restarts). *)
let test_stop_leaves_solver_reusable () =
  let expected, _, _ = solve_raw Solver.default_config xor3_cfg xor3 in
  Alcotest.(check bool) "reference is definitive" true
    (expected <> Solver.Unknown);
  List.iter
    (fun polls ->
      let calls = ref 0 in
      let stop () =
        incr calls;
        !calls > polls
      in
      let first, _, solver = solve_raw ~stop Solver.default_config xor3_cfg xor3 in
      (match first with
       | Solver.Unknown ->
         (* resume with the hook released: same solver, same clauses *)
         let again = Solver.solve solver in
         Alcotest.(check bool)
           (Printf.sprintf "reusable after stop at poll %d" polls)
           true (again = expected)
       | r ->
         (* finished before the hook fired — still must be the reference *)
         Alcotest.(check bool)
           (Printf.sprintf "finished under stop at poll %d" polls)
           true (r = expected));
      (* a third solve is idempotent either way *)
      Alcotest.(check bool)
        (Printf.sprintf "idempotent re-solve (polls=%d)" polls)
        true (Solver.solve solver = expected))
    [ 0; 1; 2; 3; 5; 8 ]

let test_stop_mid_restart_reusable () =
  (* force frequent restarts so an interruption lands at a restart
     boundary: tiny geometric restart base plus a late-firing stop *)
  let config =
    { Solver.default_config with
      seed = 1; restart = Solver.Geometric; restart_base = 1 }
  in
  let expected, _, _ = solve_raw config xor3_cfg xor3 in
  let calls = ref 0 in
  let stop () =
    incr calls;
    !calls > 4
  in
  let first, _, solver = solve_raw ~stop config xor3_cfg xor3 in
  let final = if first = Solver.Unknown then Solver.solve solver else first in
  Alcotest.(check bool) "verdict after restart interruption" true
    (final = expected)

(* ---- exchange --------------------------------------------------------- *)

let lits l = Array.of_list (List.map Lit.pos l)

let test_exchange_routing () =
  let x = Exchange.create ~workers:3 () in
  Exchange.publish x ~worker:0 (lits [ 1; 2 ]);
  Exchange.publish x ~worker:1 (lits [ 3 ]);
  (* a worker never drains its own clauses *)
  let d0 = Exchange.drain x ~worker:0 in
  Alcotest.(check int) "worker 0 sees only worker 1's clause" 1
    (List.length d0);
  Alcotest.(check bool) "and it is the right clause" true
    (List.hd d0 = lits [ 3 ]);
  let d2 = Exchange.drain x ~worker:2 in
  Alcotest.(check int) "worker 2 sees both" 2 (List.length d2);
  (* drains move the cursor: nothing new, nothing returned *)
  Alcotest.(check int) "second drain is empty" 0
    (List.length (Exchange.drain x ~worker:2));
  Exchange.publish x ~worker:0 (lits [ 4; 5 ]);
  Alcotest.(check int) "only the new clause after the cursor" 1
    (List.length (Exchange.drain x ~worker:2));
  let st = Exchange.stats x in
  Alcotest.(check int) "published" 3 st.Exchange.published;
  Alcotest.(check int) "nothing dropped" 0 st.Exchange.dropped;
  Alcotest.(check int) "in pool" 3 st.Exchange.in_pool

let test_exchange_capacity () =
  let x = Exchange.create ~capacity:2 ~workers:2 () in
  Exchange.publish x ~worker:0 (lits [ 1 ]);
  Exchange.publish x ~worker:0 (lits [ 2 ]);
  Exchange.publish x ~worker:0 (lits [ 3 ]);
  let st = Exchange.stats x in
  Alcotest.(check int) "capacity respected" 2 st.Exchange.in_pool;
  Alcotest.(check int) "overflow counted as dropped" 1 st.Exchange.dropped;
  Alcotest.(check int) "drain sees the kept clauses" 2
    (List.length (Exchange.drain x ~worker:1))

let test_exchange_attached_solvers () =
  (* two attached solvers on the same UNSAT instance: sharing must not
     change the verdict, and the hooks must not corrupt either solver *)
  let x = Exchange.create ~workers:2 () in
  let solve worker =
    let solver =
      Solver.create ~config:{ Solver.default_config with seed = worker } ()
    in
    let builder = Builder.create ~solver () in
    ignore (E.build builder xor3_cfg xor3 : E.t);
    Exchange.attach x ~worker solver;
    Solver.solve solver
  in
  let expected, _, _ = solve_raw Solver.default_config xor3_cfg xor3 in
  Alcotest.(check bool) "worker 0 verdict" true (solve 0 = expected);
  Alcotest.(check bool) "worker 1 verdict (after imports)" true
    (solve 1 = expected)

(* ---- cube splitting --------------------------------------------------- *)

let test_cubes_shape () =
  let cs = Cube.cubes xor3_cfg xor3 in
  Alcotest.(check bool) "at least two cubes" true (List.length cs >= 2);
  List.iter
    (fun c -> Alcotest.(check int) "depth-1 cube is one literal" 1
        (List.length c))
    cs;
  let uniq = List.sort_uniq compare cs in
  Alcotest.(check int) "cubes are distinct" (List.length cs)
    (List.length uniq);
  (* depth 2 is the cartesian product of the first two banks *)
  let cs2 = Cube.cubes ~depth:2 xor3_cfg xor3 in
  List.iter
    (fun c -> Alcotest.(check int) "depth-2 cube is two literals" 2
        (List.length c))
    cs2;
  (* an unsplittable instance degrades to one empty cube *)
  let r_less = E.config ~n_legs:0 ~steps_per_leg:0 ~n_rops:0 () in
  match Cube.cubes r_less (spec_of "t" [ "x1" ]) with
  | [ [] ] -> ()
  | _ -> Alcotest.fail "expected the single empty cube"

let test_cube_matches_monolithic () =
  (* UNSAT point: every cube refuted, unconditional certificate *)
  let o = Cube.solve ~workers:2 unsat_cfg andor in
  Alcotest.(check string) "unsat verdict" "UNSAT"
    (verdict_tag o.Cube.attempt.Synth.verdict);
  Alcotest.(check int) "all cubes refuted" o.Cube.cubes_total
    o.Cube.cubes_refuted;
  Alcotest.(check bool) "unconditional certificate" true
    (o.Cube.certificate = Some []);
  Alcotest.(check bool) "no sat cube" true (o.Cube.sat_cube = None);
  (* SAT point: the returned attempt carries a verified circuit *)
  let o = Cube.solve ~workers:2 sat_cfg andor in
  (match o.Cube.attempt.Synth.verdict with
   | Synth.Sat c ->
     Alcotest.(check bool) "circuit realizes the spec" true
       (Circuit.realizes c andor = Ok ())
   | _ -> Alcotest.fail "expected SAT");
  Alcotest.(check bool) "sat cube recorded" true (o.Cube.sat_cube <> None);
  Alcotest.(check bool) "no certificate on SAT" true
    (o.Cube.certificate = None)

let test_cancelled_cube_no_partial_certificate () =
  (* cancelled from the start: nothing refuted, nothing certified *)
  let o = Cube.solve ~workers:2 ~stop:(fun () -> true) unsat_cfg andor in
  Alcotest.(check string) "timeout verdict" "TIMEOUT"
    (verdict_tag o.Cube.attempt.Synth.verdict);
  Alcotest.(check bool) "no certificate" true (o.Cube.certificate = None);
  (* cancelled mid-run (after a bounded number of stop polls): whatever
     subset was refuted, a partial fold must never surface *)
  List.iter
    (fun polls ->
      let calls = ref 0 in
      let stop () =
        incr calls;
        !calls > polls
      in
      let o = Cube.solve ~workers:1 ~stop unsat_cfg andor in
      if o.Cube.cubes_refuted < o.Cube.cubes_total then begin
        Alcotest.(check string)
          (Printf.sprintf "partial run is a timeout (polls=%d)" polls)
          "TIMEOUT"
          (verdict_tag o.Cube.attempt.Synth.verdict);
        Alcotest.(check bool)
          (Printf.sprintf "partial run has no certificate (polls=%d)" polls)
          true (o.Cube.certificate = None)
      end
      else
        Alcotest.(check bool)
          (Printf.sprintf "complete run is certified (polls=%d)" polls)
          true (o.Cube.certificate = Some []))
    [ 1; 3; 6; 12 ]

(* ---- portfolio -------------------------------------------------------- *)

let test_portfolio_matches_and_replays () =
  List.iter
    (fun (cfg, name) ->
      let expected = reference cfg andor in
      let o = Portfolio.solve ~workers:3 cfg andor in
      Alcotest.(check string)
        (name ^ " verdict")
        (verdict_tag expected)
        (verdict_tag o.Portfolio.attempt.Synth.verdict);
      Alcotest.(check bool) (name ^ " has a winner") true
        (o.Portfolio.winner <> None);
      Alcotest.(check bool) (name ^ " winner index set") true
        (o.Portfolio.winner_index >= 0);
      (* replay the recorded winner alone: same verdict, single core *)
      match o.Portfolio.winner with
      | None -> ()
      | Some w ->
        let r = Portfolio.replay ~config:w.Portfolio.config cfg andor in
        Alcotest.(check string)
          (name ^ " replay")
          (verdict_tag expected)
          (verdict_tag r.Synth.verdict))
    [ (sat_cfg, "sat"); (unsat_cfg, "unsat") ]

let test_portfolio_cancelled () =
  (* the stop hook is polled on an amortized schedule, so a tiny instance
     can still be refuted before the first poll — cancellation guarantees
     consistency, not a forced timeout: a Timeout has no winner, and any
     definitive verdict has a recorded winner and matches the reference *)
  let expected = reference unsat_cfg andor in
  let o = Portfolio.solve ~workers:2 ~stop:(fun () -> true) unsat_cfg andor in
  (match o.Portfolio.attempt.Synth.verdict with
   | Synth.Timeout ->
     Alcotest.(check bool) "no winner on a cancelled race" true
       (o.Portfolio.winner = None);
     Alcotest.(check int) "winner index -1" (-1) o.Portfolio.winner_index
   | v ->
     Alcotest.(check string) "early finish matches reference"
       (verdict_tag expected) (verdict_tag v);
     Alcotest.(check bool) "early finish has a winner" true
       (o.Portfolio.winner <> None));
  (* a cancelled worker pool must leave the exchange stats coherent *)
  let st = o.Portfolio.exchange in
  Alcotest.(check bool) "exchange stats sane" true
    (st.Exchange.published >= 0 && st.Exchange.in_pool <= st.Exchange.published)

(* ---- orchestrator ----------------------------------------------------- *)

let test_prove_auto_and_replay () =
  let t = { Prove.default with Prove.workers = 2 } in
  (* splittable instance resolves to cube mode *)
  Alcotest.(check bool) "auto resolves to cube" true
    (Prove.resolve_mode t unsat_cfg = Prove.Cube_mode);
  let attempt, prov = Prove.solve_instance t unsat_cfg andor in
  Alcotest.(check string) "orchestrated verdict" "UNSAT"
    (verdict_tag attempt.Synth.verdict);
  Alcotest.(check bool) "provenance mode" true
    (prov.Prove.used_mode = Prove.Cube_mode);
  Alcotest.(check int) "provenance workers" 2 prov.Prove.p_workers;
  (* single-core replay from provenance *)
  let r = Prove.replay prov unsat_cfg andor in
  Alcotest.(check string) "replay verdict" "UNSAT"
    (verdict_tag r.Synth.verdict);
  (* forced portfolio mode on the same instance *)
  let tp = { t with Prove.mode = Prove.Portfolio_mode } in
  let attempt, prov = Prove.solve_instance tp unsat_cfg andor in
  Alcotest.(check string) "portfolio verdict" "UNSAT"
    (verdict_tag attempt.Synth.verdict);
  Alcotest.(check bool) "portfolio provenance" true
    (prov.Prove.used_mode = Prove.Portfolio_mode);
  let r = Prove.replay prov unsat_cfg andor in
  Alcotest.(check string) "portfolio replay" "UNSAT"
    (verdict_tag r.Synth.verdict)

let test_minimize_with_prove_differential () =
  (* the whole point: Synth.minimize ?prove must land on the same minimum
     with the same proof flags as the sequential paths *)
  let plain = Synth.minimize ~timeout_per_call:30. ~max_steps:4 andor in
  let t = { Prove.default with Prove.workers = 2 } in
  let logged = ref 0 in
  let prove =
    Prove.hook ~log:(fun _ _ -> incr logged) t andor
  in
  let proved =
    Synth.minimize ~timeout_per_call:30. ~max_steps:4 ~incremental:false
      ~prove andor
  in
  let dims (r : Synth.report) =
    match r.Synth.best with
    | Some (_, a) -> Some (a.Synth.n_rops, a.Synth.n_legs, a.Synth.steps_per_leg)
    | None -> None
  in
  Alcotest.(check bool) "same minimal dimensions" true
    (dims plain = dims proved);
  Alcotest.(check bool) "same N_R proof" true
    (plain.Synth.rops_proven_minimal = proved.Synth.rops_proven_minimal);
  Alcotest.(check bool) "same N_VS proof" true
    (plain.Synth.steps_proven_minimal = proved.Synth.steps_proven_minimal);
  Alcotest.(check bool) "hook observed every point" true
    (!logged = List.length proved.Synth.attempts)

(* ---- engine integration ----------------------------------------------- *)

let test_engine_stats_v4 () =
  let j = Engine.stats_to_json Engine.empty_summary in
  Alcotest.(check (option string)) "schema" (Some "mmsynth-stats-v4")
    (Option.bind (Json.member "schema" j) Json.to_str);
  Alcotest.(check (option int)) "restarts present" (Some 0)
    (Option.bind (Json.member "restarts" j) Json.to_int);
  Alcotest.(check (option int)) "imported_clauses present" (Some 0)
    (Option.bind (Json.member "imported_clauses" j) Json.to_int)

let test_engine_probe_with_prove () =
  let t = { Prove.default with Prove.workers = 2 } in
  let cfg =
    Engine.config ~timeout_per_call:30.
      ~prove:(fun spec ~timeout ecfg -> Prove.hook t spec ~timeout ecfg)
      ()
  in
  match Engine.probe_class cfg andor with
  | None -> Alcotest.fail "probe found no circuit"
  | Some p ->
    Alcotest.(check bool) "exact" true p.Engine.probe_exact;
    Alcotest.(check bool) "verified circuit" true
      (Circuit.realizes p.Engine.probe_circuit andor = Ok ())

let () =
  Alcotest.run "prove"
    [
      ( "solver",
        [
          Alcotest.test_case "config determinism" `Quick
            test_config_determinism;
          Alcotest.test_case "diversification table" `Quick
            test_diversify_table;
          Alcotest.test_case "stop leaves solver reusable" `Quick
            test_stop_leaves_solver_reusable;
          Alcotest.test_case "stop at restart boundary" `Quick
            test_stop_mid_restart_reusable;
        ] );
      ( "exchange",
        [
          Alcotest.test_case "routing and cursors" `Quick
            test_exchange_routing;
          Alcotest.test_case "capacity bound" `Quick test_exchange_capacity;
          Alcotest.test_case "attached solvers" `Quick
            test_exchange_attached_solvers;
        ] );
      ( "cube",
        [
          Alcotest.test_case "cube set shape" `Quick test_cubes_shape;
          Alcotest.test_case "matches monolithic" `Quick
            test_cube_matches_monolithic;
          Alcotest.test_case "cancellation never certifies" `Quick
            test_cancelled_cube_no_partial_certificate;
        ] );
      ( "portfolio",
        [
          Alcotest.test_case "matches and replays" `Quick
            test_portfolio_matches_and_replays;
          Alcotest.test_case "cancellation" `Quick test_portfolio_cancelled;
        ] );
      ( "orchestrator",
        [
          Alcotest.test_case "auto mode and replay" `Quick
            test_prove_auto_and_replay;
          Alcotest.test_case "minimize differential" `Quick
            test_minimize_with_prove_differential;
        ] );
      ( "engine",
        [
          Alcotest.test_case "stats schema v4" `Quick test_engine_stats_v4;
          Alcotest.test_case "probe with prove hook" `Quick
            test_engine_probe_with_prove;
        ] );
    ]
