module Spec = Mm_boolfun.Spec
module Solver = Mm_sat.Solver
module Builder = Mm_cnf.Builder

type verdict = Ladder.verdict = Sat of Circuit.t | Unsat | Timeout

type attempt = Ladder.attempt = {
  n_legs : int;
  steps_per_leg : int;
  n_rops : int;
  verdict : verdict;
  vars : int;
  clauses : int;
  time_s : float;
  solver_stats : Solver.stats;
}

let default_legs ?(adder = false) spec ~n_rops =
  let base = n_rops + Spec.output_count spec in
  max 1 (if adder then base - 1 else base)

let solve_instance ?timeout (cfg : Encode.config) spec =
  let solver = Solver.create () in
  let builder = Builder.create ~solver () in
  let t0 = Unix.gettimeofday () in
  let layout = Encode.build builder cfg spec in
  let result = Solver.solve ?timeout solver in
  let time_s = Unix.gettimeofday () -. t0 in
  let verdict =
    match result with
    | Solver.Sat ->
      let circuit = Encode.decode layout ~value:(Solver.value_var solver) in
      (match Circuit.realizes circuit spec with
       | Ok () -> Sat circuit
       | Error row ->
         failwith
           (Printf.sprintf
              "Synth.solve_instance: decoded circuit wrong on row %d (encoder bug)"
              row))
    | Solver.Unsat -> Unsat
    | Solver.Unknown -> Timeout
  in
  {
    n_legs = cfg.Encode.n_legs;
    steps_per_leg = cfg.Encode.steps_per_leg;
    n_rops = cfg.Encode.n_rops;
    verdict;
    vars = Builder.num_vars builder;
    clauses = Builder.num_clauses builder;
    time_s;
    solver_stats = Solver.stats solver;
  }

type report = {
  best : (Circuit.t * attempt) option;
  attempts : attempt list;
  rops_proven_minimal : bool;
  steps_proven_minimal : bool;
}

let pp_attempt ppf a =
  let verdict =
    match a.verdict with
    | Sat _ -> "SAT"
    | Unsat -> "UNSAT"
    | Timeout -> "timeout"
  in
  Format.fprintf ppf "N_R=%d N_L=%d N_VS=%d -> %-7s (%d vars, %d clauses, %.2fs)"
    a.n_rops a.n_legs a.steps_per_leg verdict a.vars a.clauses a.time_s

(* One phase of the sweep: answers [point k] for k = lo, lo+1, ... up to
   [hi] and stops at the first SAT. The flag stays true while every point
   below the answer was UNSAT — each is an optimality certificate. *)
let sweep ~lo ~hi point =
  let rec go k proven =
    if k > hi then (None, proven)
    else
      let a = point k in
      match a.verdict with
      | Sat c -> (Some (k, c, a), proven)
      | Unsat -> go (k + 1) proven
      | Timeout -> go (k + 1) false
  in
  go lo true

(* The paper's outer loop. Phase 1 fixes N_VS = max_steps and grows N_R from
   0 until SAT; every UNSAT on the way is an optimality certificate for that
   N_R. Phase 2 keeps the minimal N_R and grows N_VS from 1 until SAT.

   With [incremental] (the default) both phases run as assumption-restricted
   points of one max-budget {!Ladder} encoding on a single solver; the
   monolithic fresh-solver-per-point path is retained as the
   differential-testing oracle. *)
let minimize ?(timeout_per_call = 60.) ?max_rops ?(max_steps = 0) ?legs_of
    ?(rop_kind = Rop.Nor) ?(taps = Encode.Any_vop) ?(symmetry_breaking = true)
    ?(incremental = true) ?prove ?lookup ?store spec =
  let max_steps =
    if max_steps > 0 then max_steps else Spec.arity spec + 2
  in
  let max_rops =
    match max_rops with Some m -> m | None -> Baseline.nor_count spec
  in
  let legs_of =
    match legs_of with
    | Some f -> f
    | None -> fun n_rops -> default_legs spec ~n_rops
  in
  let make_ladder enc_rops =
    let max_legs = ref 0 in
    for r = 0 to enc_rops do
      max_legs := max !max_legs (legs_of r)
    done;
    Ladder.create ~rop_kind ~taps ~symmetry_breaking ~max_legs:!max_legs
      ~max_steps ~max_rops:enc_rops spec
  in
  (* The shared encoding is sized for the budget points actually visited,
     not the worst case: an encoding at [max_rops] would tax every
     propagation of every point with clauses for budgets the sweep never
     reaches. Start near the bottom of the sweep and rebuild exactly as far
     as the requested point when it exceeds the current caps: a rebuild
     forfeits the learnt clauses accumulated so far either way (they are
     forfeited at the same moment under any growth rule — the rebuild
     happens when the out-of-range point is first requested), so
     over-shooting the new cap buys no extra reuse and only re-introduces
     the oversized-encoding tax for the remaining points. *)
  let ladder = ref None in
  let ladder_for ~n_rops =
    match !ladder with
    | Some (enc, l) when n_rops <= enc -> l
    | _ ->
      let enc = min max_rops (max 2 n_rops) in
      let l = make_ladder enc in
      ladder := Some (enc, l);
      l
  in
  let attempts = ref [] in
  (* Dimensions answered once in this call are never re-solved: a custom
     [legs_of] can map different N_R to the same (N_L, N_VS, N_R) request,
     and an UNSAT certificate for those dimensions stays valid. *)
  let memo : (int * int * int, attempt) Hashtbl.t = Hashtbl.create 8 in
  let run ~n_rops ~steps =
    let n_legs = legs_of n_rops in
    match Hashtbl.find_opt memo (n_legs, steps, n_rops) with
    | Some a -> a
    | None ->
      let cfg =
        Encode.config ~rop_kind ~taps ~symmetry_breaking ~n_legs
          ~steps_per_leg:steps ~n_rops ()
      in
      let cached = match lookup with Some f -> f cfg | None -> None in
      let a =
        match cached with
        | Some a -> a
        | None ->
          let a =
            match prove with
            | Some p -> p ~timeout:timeout_per_call cfg
            | None ->
              if incremental then
                Ladder.solve_point ~timeout:timeout_per_call
                  (ladder_for ~n_rops) ~n_legs ~steps ~n_rops
              else solve_instance ~timeout:timeout_per_call cfg spec
          in
          (match store with Some g -> g cfg a | None -> ());
          a
      in
      Hashtbl.replace memo (n_legs, steps, n_rops) a;
      attempts := a :: !attempts;
      a
  in
  (* Phase 1: minimal N_R at generous N_VS *)
  match
    sweep ~lo:0 ~hi:max_rops (fun n_rops -> run ~n_rops ~steps:max_steps)
  with
  | None, proven ->
    { best = None; attempts = List.rev !attempts; rops_proven_minimal = proven;
      steps_proven_minimal = false }
  | Some (n_rops, circuit0, attempt0), rops_proven ->
    (* Phase 2: minimal N_VS for this N_R *)
    let best, steps_proven =
      match
        sweep ~lo:1 ~hi:(max_steps - 1) (fun steps -> run ~n_rops ~steps)
      with
      | Some (_, c, a), proven -> (Some (c, a), proven)
      | None, proven -> (Some (circuit0, attempt0), proven)
    in
    {
      best;
      attempts = List.rev !attempts;
      rops_proven_minimal = rops_proven;
      steps_proven_minimal = steps_proven;
    }

let minimize_r_only ?(timeout_per_call = 60.) ?max_rops ?(rop_kind = Rop.Nor)
    ?(symmetry_breaking = true) ?(incremental = true) ?prove ?lookup ?store
    spec =
  let baseline = Baseline.nor_network spec in
  let max_rops =
    match max_rops with Some m -> m | None -> Circuit.n_rops baseline
  in
  let ladder =
    lazy
      (Ladder.create ~rop_kind ~symmetry_breaking ~max_legs:0 ~max_steps:0
         ~max_rops spec)
  in
  let attempts = ref [] in
  let run n_rops =
    let cfg =
      Encode.config ~rop_kind ~symmetry_breaking ~n_legs:0 ~steps_per_leg:0
        ~n_rops ()
    in
    let cached = match lookup with Some f -> f cfg | None -> None in
    let a =
      match cached with
      | Some a -> a
      | None ->
        let a =
          match prove with
          | Some p -> p ~timeout:timeout_per_call cfg
          | None ->
            if incremental then
              Ladder.solve_point ~timeout:timeout_per_call (Lazy.force ladder)
                ~n_legs:0 ~steps:0 ~n_rops
            else solve_instance ~timeout:timeout_per_call cfg spec
        in
        (match store with Some g -> g cfg a | None -> ());
        a
    in
    attempts := a :: !attempts;
    a
  in
  (* N_R = 0 is legitimate: an output may be a plain literal *)
  let best, proven =
    match sweep ~lo:0 ~hi:max_rops run with
    | Some (_, c, a), proven -> (Some (c, a), proven)
    | None, proven -> (None, proven)
  in
  {
    best;
    attempts = List.rev !attempts;
    rops_proven_minimal = proven;
    steps_proven_minimal = true;
  }
