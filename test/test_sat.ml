module Solver = Mm_sat.Solver
module Lit = Mm_sat.Lit
module Dimacs = Mm_sat.Dimacs

let qtest = QCheck_alcotest.to_alcotest

let result = Alcotest.testable
    (fun ppf -> function
       | Solver.Sat -> Format.fprintf ppf "Sat"
       | Solver.Unsat -> Format.fprintf ppf "Unsat"
       | Solver.Unknown -> Format.fprintf ppf "Unknown")
    ( = )

let fresh n =
  let s = Solver.create () in
  ignore (Solver.new_vars s n);
  s

let test_lit () =
  let l = Lit.make 4 true in
  Alcotest.(check int) "var" 4 (Lit.var l);
  Alcotest.(check bool) "sign" true (Lit.sign l);
  Alcotest.(check int) "negate var" 4 (Lit.var (Lit.negate l));
  Alcotest.(check bool) "negate sign" false (Lit.sign (Lit.negate l));
  Alcotest.(check int) "dimacs" (-5) (Lit.to_dimacs l);
  Alcotest.(check int) "roundtrip" l (Lit.of_dimacs (Lit.to_dimacs l))

let test_trivial_sat () =
  let s = fresh 2 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "clause satisfied" true
    (Solver.value s (Lit.pos 0) || Solver.value s (Lit.pos 1))

let test_unit_conflict () =
  let s = fresh 1 in
  Solver.add_clause s [ Lit.pos 0 ];
  Solver.add_clause s [ Lit.neg_of 0 ];
  Alcotest.(check bool) "ok false" false (Solver.ok s);
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s)

let test_empty_clause () =
  let s = fresh 1 in
  Solver.add_clause s [];
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s)

let test_tautology_dropped () =
  let s = fresh 1 in
  Solver.add_clause s [ Lit.pos 0; Lit.neg_of 0 ];
  Alcotest.(check int) "no clause stored" 0 (Solver.nclauses s);
  Alcotest.check result "sat" Solver.Sat (Solver.solve s)

let test_duplicate_literals () =
  let s = fresh 2 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 0; Lit.pos 0 ];
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "forced" true (Solver.value s (Lit.pos 0))

let test_implication_chain () =
  (* x0 -> x1 -> ... -> x9, assert x0, all must be true *)
  let s = fresh 10 in
  for i = 0 to 8 do
    Solver.add_clause s [ Lit.neg_of i; Lit.pos (i + 1) ]
  done;
  Solver.add_clause s [ Lit.pos 0 ];
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  for i = 0 to 9 do
    Alcotest.(check bool) (Printf.sprintf "x%d" i) true (Solver.value_var s i)
  done

let php ~pigeons ~holes =
  let s = Solver.create () in
  let var p h = p * holes + h in
  ignore (Solver.new_vars s (pigeons * holes));
  for p = 0 to pigeons - 1 do
    Solver.add_clause s (List.init holes (fun h -> Lit.pos (var p h)))
  done;
  for h = 0 to holes - 1 do
    for p1 = 0 to pigeons - 1 do
      for p2 = p1 + 1 to pigeons - 1 do
        Solver.add_clause s [ Lit.neg_of (var p1 h); Lit.neg_of (var p2 h) ]
      done
    done
  done;
  s

let test_php_unsat () =
  Alcotest.check result "php(5,4)" Solver.Unsat (Solver.solve (php ~pigeons:5 ~holes:4));
  Alcotest.check result "php(7,6)" Solver.Unsat (Solver.solve (php ~pigeons:7 ~holes:6))

let test_php_sat () =
  let s = php ~pigeons:5 ~holes:5 in
  Alcotest.check result "php(5,5)" Solver.Sat (Solver.solve s)

let test_budget_unknown () =
  let s = php ~pigeons:9 ~holes:8 in
  Alcotest.check result "conflict budget" Solver.Unknown
    (Solver.solve ~max_conflicts:10 s);
  (* a second call with full budget still completes correctly *)
  Alcotest.check result "then unsat" Solver.Unsat (Solver.solve s)

let test_assumptions () =
  let s = fresh 3 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Solver.add_clause s [ Lit.neg_of 1; Lit.pos 2 ];
  Alcotest.check result "assume ~x0" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.neg_of 0 ] s);
  Alcotest.(check bool) "x1 forced" true (Solver.value_var s 1);
  Alcotest.(check bool) "x2 forced" true (Solver.value_var s 2);
  Alcotest.check result "conflicting assumptions" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.neg_of 0; Lit.neg_of 1 ] s);
  (* solver is reusable after assumption-unsat *)
  Alcotest.check result "no assumptions" Solver.Sat (Solver.solve s)

let test_incremental () =
  let s = fresh 2 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Alcotest.check result "sat 1" Solver.Sat (Solver.solve s);
  Solver.add_clause s [ Lit.neg_of 0 ];
  Alcotest.check result "sat 2" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "x1" true (Solver.value_var s 1);
  Solver.add_clause s [ Lit.neg_of 1 ];
  Alcotest.check result "unsat" Solver.Unsat (Solver.solve s)

let test_incremental_with_assumptions () =
  (* interleave clause addition with assumption solves on one solver *)
  let s = fresh 3 in
  Solver.add_clause s [ Lit.pos 0; Lit.pos 1 ];
  Alcotest.check result "sat assuming ~x0" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.neg_of 0 ] s);
  Solver.add_clause s [ Lit.neg_of 1; Lit.pos 2 ];
  Alcotest.check result "sat assuming ~x0 ~x2" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.neg_of 0; Lit.neg_of 2 ] s);
  Solver.add_clause s [ Lit.neg_of 2 ];
  Alcotest.check result "now x0 is forced" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "x0" true (Solver.value_var s 0);
  Alcotest.check result "assuming ~x0 is refuted" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.neg_of 0 ] s)

let test_assumption_polarity_flips () =
  (* x0 -> x2, x1 -> x3, never both x2 and x3; flip assumption polarities
     back and forth — clauses learned under one polarity must not
     contaminate answers under another *)
  let s = fresh 4 in
  Solver.add_clause s [ Lit.neg_of 0; Lit.pos 2 ];
  Solver.add_clause s [ Lit.neg_of 1; Lit.pos 3 ];
  Solver.add_clause s [ Lit.neg_of 2; Lit.neg_of 3 ];
  Alcotest.check result "both on" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos 0; Lit.pos 1 ] s);
  Alcotest.check result "x0 only" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.pos 0; Lit.neg_of 1 ] s);
  Alcotest.(check bool) "x2 implied" true (Solver.value_var s 2);
  Alcotest.check result "x1 only" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.neg_of 0; Lit.pos 1 ] s);
  Alcotest.(check bool) "x3 implied" true (Solver.value_var s 3);
  Alcotest.check result "both on again" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos 0; Lit.pos 1 ] s);
  Alcotest.check result "both off" Solver.Sat
    (Solver.solve ~assumptions:[ Lit.neg_of 0; Lit.neg_of 1 ] s);
  Alcotest.check result "unconstrained" Solver.Sat (Solver.solve s)

let test_failed_assumptions () =
  let s = fresh 4 in
  Solver.add_clause s [ Lit.neg_of 0; Lit.pos 1 ];
  Solver.add_clause s [ Lit.neg_of 1; Lit.neg_of 2 ];
  (* {x0, x2} is inconsistent with the clauses; x3 is irrelevant *)
  Alcotest.check result "unsat under assumptions" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos 0; Lit.pos 2; Lit.pos 3 ] s);
  let failed = Solver.failed_assumptions s in
  Alcotest.(check bool) "core is nonempty" true (failed <> []);
  List.iter
    (fun l ->
      Alcotest.(check bool) "core within assumptions" true
        (List.mem l [ Lit.pos 0; Lit.pos 2; Lit.pos 3 ]))
    failed;
  Alcotest.(check bool) "irrelevant x3 not blamed" true
    (not (List.mem (Lit.pos 3) failed));
  (* the extracted core alone still refutes the formula *)
  Alcotest.check result "core refutes" Solver.Unsat
    (Solver.solve ~assumptions:failed s);
  (* and the formula is satisfiable without the assumptions *)
  Alcotest.check result "sat without" Solver.Sat (Solver.solve s)

let test_failed_assumptions_root_unsat () =
  (* a formula unsat on its own yields the empty core: no assumption is to
     blame, the refutation holds under every assignment *)
  let s = fresh 2 in
  Solver.add_clause s [ Lit.pos 0 ];
  Solver.add_clause s [ Lit.neg_of 0 ];
  Alcotest.check result "unsat" Solver.Unsat
    (Solver.solve ~assumptions:[ Lit.pos 1 ] s);
  Alcotest.(check (list int)) "empty core" [] (Solver.failed_assumptions s)

let test_value_without_model () =
  let s = fresh 1 in
  Solver.add_clause s [ Lit.pos 0 ];
  Alcotest.check_raises "no model yet" (Invalid_argument "Solver.value: no model")
    (fun () -> ignore (Solver.value s (Lit.pos 0)))

(* random CNF vs brute force *)
let brute_force_sat num_vars clauses =
  let satisfies m clause =
    List.exists
      (fun d ->
        let v = abs d - 1 in
        let value = (m lsr v) land 1 = 1 in
        if d > 0 then value else not value)
      clause
  in
  let rec go m =
    if m >= 1 lsl num_vars then false
    else if List.for_all (satisfies m) clauses then true
    else go (m + 1)
  in
  go 0

let gen_cnf =
  QCheck.Gen.(
    let* num_vars = int_range 2 8 in
    let* num_clauses = int_range 1 30 in
    let gen_clause =
      let* width = int_range 1 3 in
      list_repeat width
        (let* v = int_range 1 num_vars in
         let* s = bool in
         return (if s then v else -v))
    in
    let* clauses = list_repeat num_clauses gen_clause in
    return (num_vars, clauses))

let prop_random_cnf =
  QCheck.Test.make ~name:"CDCL agrees with brute force" ~count:300
    (QCheck.make
       ~print:(fun (n, cs) ->
         Printf.sprintf "n=%d %s" n
           (String.concat " "
              (List.map
                 (fun c -> String.concat "," (List.map string_of_int c))
                 cs)))
       gen_cnf)
    (fun (num_vars, clauses) ->
      let s = fresh num_vars in
      List.iter (fun c -> Solver.add_clause s (List.map Lit.of_dimacs c)) clauses;
      match Solver.solve s with
      | Solver.Sat ->
        (* the model must satisfy every clause *)
        brute_force_sat num_vars clauses
        && List.for_all
             (List.exists (fun d -> Solver.value s (Lit.of_dimacs d)))
             clauses
      | Solver.Unsat -> not (brute_force_sat num_vars clauses)
      | Solver.Unknown -> false)

(* Incremental solving: clauses arrive between [solve ~assumptions] calls on
   one solver. Every call must agree with brute force over the clauses added
   so far, and every UNSAT must come with a core of the assumptions that is
   UNSAT again on its own. *)
let brute_force_under num_vars clauses assumptions =
  brute_force_sat num_vars (List.map (fun d -> [ d ]) assumptions @ clauses)

let gen_incremental =
  QCheck.Gen.(
    let* num_vars = int_range 2 8 in
    let gen_lit =
      let* v = int_range 1 num_vars in
      let* s = bool in
      return (if s then v else -v)
    in
    let gen_clause =
      let* width = int_range 1 3 in
      list_repeat width gen_lit
    in
    let gen_step =
      let* added = list_size (int_range 0 8) gen_clause in
      let* assumptions = list_size (int_range 0 3) gen_lit in
      return (added, assumptions)
    in
    let* steps = list_size (int_range 2 6) gen_step in
    return (num_vars, steps))

let prop_incremental =
  let show_clauses cs =
    String.concat " "
      (List.map (fun c -> String.concat "," (List.map string_of_int c)) cs)
  in
  QCheck.Test.make ~name:"incremental solves agree with brute force"
    ~count:300
    (QCheck.make
       ~print:(fun (n, steps) ->
         Printf.sprintf "n=%d %s" n
           (String.concat " | "
              (List.map
                 (fun (cs, a) ->
                   Printf.sprintf "+[%s] assume [%s]" (show_clauses cs)
                     (show_clauses [ a ]))
                 steps)))
       gen_incremental)
    (fun (num_vars, steps) ->
      let s = fresh num_vars in
      let clauses = ref [] in
      List.for_all
        (fun (added, assumptions) ->
          List.iter
            (fun c -> Solver.add_clause s (List.map Lit.of_dimacs c))
            added;
          clauses := added @ !clauses;
          let expect = brute_force_under num_vars !clauses assumptions in
          match
            Solver.solve ~assumptions:(List.map Lit.of_dimacs assumptions) s
          with
          | Solver.Sat ->
            expect
            && List.for_all
                 (List.exists (fun d -> Solver.value s (Lit.of_dimacs d)))
                 (List.map (fun d -> [ d ]) assumptions @ !clauses)
          | Solver.Unsat ->
            let core = Solver.failed_assumptions s in
            (not expect)
            && List.for_all
                 (fun l -> List.mem (Lit.to_dimacs l) assumptions)
                 core
            && Solver.solve ~assumptions:core s = Solver.Unsat
          | Solver.Unknown -> false)
        steps)

let test_stats () =
  let s = php ~pigeons:5 ~holes:4 in
  ignore (Solver.solve s);
  let st = Solver.stats s in
  Alcotest.(check bool) "conflicts happened" true (st.Solver.conflicts > 0);
  Alcotest.(check bool) "propagations happened" true (st.Solver.propagations > 0);
  Alcotest.(check bool) "learnt DB peak tracked" true
    (st.Solver.peak_learnts > 0);
  Alcotest.(check bool) "propagation throughput tracked" true
    (st.Solver.props_per_s >= 0.)

(* --- search identity ---------------------------------------------------

   The solver's search is a deterministic function of its config and clause
   stream. These pins record the exact counters, verdicts, models and
   failed-assumption cores of a few instances that exercise learnt-DB
   reduction, clause-storage compaction, incremental assumption solving and
   the diversification knobs. A storage-layer change that keeps the search
   identical keeps every pin; one that perturbs a watch order, a learnt
   clause or a reduction choice moves them. *)

let counters s =
  let st = Solver.stats s in
  [ st.Solver.conflicts; st.Solver.decisions; st.Solver.propagations;
    st.Solver.restarts; st.Solver.peak_learnts ]

let model_hash s nvars =
  let h = ref 0 in
  for v = 0 to nvars - 1 do
    h := ((!h * 31) + if Solver.value_var s v then 1 else 0) land 0xFFFFFFF
  done;
  !h

(* Uniform random 3-SAT from a private LCG, so the instance does not depend
   on the standard library's PRNG. *)
let random_3sat ?(config = Solver.default_config) ~seed ~vars ~clauses () =
  let st = ref seed in
  let next bound =
    st := ((!st * 0x5DEECE66D) + 11) land 0xFFFFFFFFFFFF;
    (!st lsr 17) mod bound
  in
  let s = Solver.create ~config () in
  ignore (Solver.new_vars s vars);
  for _ = 1 to clauses do
    let rec pick acc =
      if List.length acc = 3 then acc
      else
        let v = next vars in
        if List.mem v (List.map Lit.var acc) then pick acc
        else pick (Lit.make v (next 2 = 1) :: acc)
    in
    Solver.add_clause s (pick [])
  done;
  s

let verdict s nvars = function
  | Solver.Sat -> model_hash s nvars
  | Solver.Unsat -> -1
  | Solver.Unknown -> -2

(* php(9,8) runs three learnt-DB reductions, each followed by compaction. *)
let test_pin_php () =
  let s = php ~pigeons:9 ~holes:8 in
  let r = Solver.solve s in
  Alcotest.(check (list int)) "php(9,8) verdict and counters"
    [ -1; 17687; 21341; 230969; 62; 13788 ] (verdict s 72 r :: counters s)

let test_pin_random_3sat () =
  let s = random_3sat ~seed:7 ~vars:180 ~clauses:767 () in
  let r = Solver.solve s in
  Alcotest.(check (list int)) "random 3-SAT verdict, model and counters"
    [ 212277882; 7157; 8581; 264065; 30; 4144 ] (verdict s 180 r :: counters s);
  let st = Solver.stats s in
  Alcotest.(check bool) "learnt DB was reduced" true
    (st.Solver.learnt_clauses < st.Solver.peak_learnts)

(* Seven pigeons, nine holes; assumption [a_h] closes hole [h]. Closing
   three or more holes is UNSAT, and the core names the closed holes the
   refutation needs. A clause added mid-sweep exercises incremental adds. *)
let test_pin_assumption_sweep () =
  let pigeons = 7 and holes = 9 in
  let s = php ~pigeons ~holes in
  let closer = Solver.new_vars s holes in
  for h = 0 to holes - 1 do
    for p = 0 to pigeons - 1 do
      Solver.add_clause s
        [ Lit.neg_of (closer + h); Lit.neg_of ((p * holes) + h) ]
    done
  done;
  let nv = Solver.nvars s in
  let trace = ref [] in
  for k = 0 to 4 do
    if k = 2 then Solver.add_clause s [ Lit.neg_of 0; Lit.neg_of (holes + 1) ];
    let assumptions =
      List.init (k + 1) (fun h -> Lit.pos (closer + ((k + (2 * h)) mod holes)))
    in
    let r = Solver.solve ~assumptions s in
    trace := verdict s nv r :: !trace;
    if r = Solver.Unsat then begin
      let core = Solver.failed_assumptions s in
      trace := List.rev_append (List.map (fun l -> Lit.var l - closer) core) !trace;
      (* the core alone still refutes *)
      Alcotest.check result "core refutes" Solver.Unsat
        (Solver.solve ~assumptions:core s)
    end
  done;
  Alcotest.(check (list int)) "verdicts, models, cores and counters"
    [ 108239880; 156364801; -1; 2; 4; 6; -1; 3; 5; 7; 0; -1; 4; 6; 8; 1; 3;
      799; 1076; 11850; 6; 799 ] (List.rev !trace @ counters s)

let test_pin_diversified () =
  let config =
    { Solver.default_config with
      seed = 7; random_polarity = 0.05; var_jitter = 0.5;
      restart = Solver.Geometric; restart_base = 50 }
  in
  let s = random_3sat ~config ~seed:8 ~vars:180 ~clauses:767 () in
  let r = Solver.solve s in
  Alcotest.(check (list int)) "diversified verdict and counters"
    [ -1; 7862; 9183; 277380; 10; 1663 ] (verdict s 180 r :: counters s)

(* --- DIMACS --- *)

let test_dimacs_parse () =
  let input = "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n" in
  match Dimacs.parse_string input with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok p ->
    Alcotest.(check int) "vars" 3 p.Dimacs.num_vars;
    Alcotest.(check (list (list int))) "clauses" [ [ 1; -2 ]; [ 2; 3 ] ]
      p.Dimacs.clauses

let test_dimacs_roundtrip () =
  let p = { Dimacs.num_vars = 4; clauses = [ [ 1; -3 ]; [ 2; 4; -1 ]; [ -4 ] ] } in
  match Dimacs.parse_string (Dimacs.to_string p) with
  | Error e -> Alcotest.failf "parse error: %s" e
  | Ok p' ->
    Alcotest.(check int) "vars" p.Dimacs.num_vars p'.Dimacs.num_vars;
    Alcotest.(check (list (list int))) "clauses" p.Dimacs.clauses p'.Dimacs.clauses

let test_dimacs_load () =
  let p = { Dimacs.num_vars = 2; clauses = [ [ 1 ]; [ -1; 2 ] ] } in
  let s = Solver.create () in
  Dimacs.load s p;
  Alcotest.check result "sat" Solver.Sat (Solver.solve s);
  Alcotest.(check bool) "x2" true (Solver.value_var s 1)

let test_dimacs_errors () =
  (match Dimacs.parse_string "p cnf x 2\n1 0\n" with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "expected error");
  match Dimacs.parse_string "1 two 0\n" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected error"

let () =
  Alcotest.run "sat"
    [
      ("lit", [ Alcotest.test_case "encoding" `Quick test_lit ]);
      ( "solver",
        [
          Alcotest.test_case "trivial sat" `Quick test_trivial_sat;
          Alcotest.test_case "unit conflict" `Quick test_unit_conflict;
          Alcotest.test_case "empty clause" `Quick test_empty_clause;
          Alcotest.test_case "tautology dropped" `Quick test_tautology_dropped;
          Alcotest.test_case "duplicate literals" `Quick test_duplicate_literals;
          Alcotest.test_case "implication chain" `Quick test_implication_chain;
          Alcotest.test_case "pigeonhole unsat" `Slow test_php_unsat;
          Alcotest.test_case "pigeonhole sat" `Quick test_php_sat;
          Alcotest.test_case "budget -> Unknown" `Quick test_budget_unknown;
          Alcotest.test_case "assumptions" `Quick test_assumptions;
          Alcotest.test_case "incremental" `Quick test_incremental;
          Alcotest.test_case "incremental with assumptions" `Quick
            test_incremental_with_assumptions;
          Alcotest.test_case "assumption polarity flips" `Quick
            test_assumption_polarity_flips;
          Alcotest.test_case "failed assumptions" `Quick
            test_failed_assumptions;
          Alcotest.test_case "failed assumptions, root unsat" `Quick
            test_failed_assumptions_root_unsat;
          Alcotest.test_case "value without model" `Quick test_value_without_model;
          Alcotest.test_case "stats" `Quick test_stats;
          qtest prop_random_cnf;
          qtest prop_incremental;
        ] );
      ( "search identity",
        [
          Alcotest.test_case "php(9,8) pins" `Quick test_pin_php;
          Alcotest.test_case "random 3-SAT pins" `Quick test_pin_random_3sat;
          Alcotest.test_case "assumption sweep pins" `Quick
            test_pin_assumption_sweep;
          Alcotest.test_case "diversified config pins" `Quick
            test_pin_diversified;
        ] );
      ( "dimacs",
        [
          Alcotest.test_case "parse" `Quick test_dimacs_parse;
          Alcotest.test_case "roundtrip" `Quick test_dimacs_roundtrip;
          Alcotest.test_case "load" `Quick test_dimacs_load;
          Alcotest.test_case "errors" `Quick test_dimacs_errors;
        ] );
    ]
