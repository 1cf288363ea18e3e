(* npn4-synth: exact minimization through Engine.run, the `batch` path —
   NPN canonicalization, result cache, the two-phase N_R/N_V ladder,
   decanonicalization and re-verification — with the ladder benchmark's
   caps (max_rops 4, max_steps 3), no atlas, and a per-call budget no class
   here comes near. Each class is one Engine.run on a fresh in-memory
   cache, so every pass does the full SAT work. *)

module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table
module Circuit = Mm_core.Circuit
module Synth = Mm_core.Synth
module Solver = Mm_sat.Solver
module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache

let name = "npn4-synth"
let nominal_pass_s = 9.5
let probe_budget_s = 60.
let setup_reps = 25

(* The 4-input NPN class representatives of BENCH_ladder.json whose exact
   minimization finished with both proofs, and their verdicts (N_R, N_VS).
   Its three N_R = 3 classes (npn-0690, npn-1696, npn-16ad) are left out:
   each takes 25-40 s, longer than the other 21 together. *)
let classes =
  [| (0x0000, 0, 1); (0x0019, 1, 3); (0x006f, 1, 2); (0x011b, 1, 3);
     (0x0168, 2, 3); (0x0181, 1, 3); (0x0197, 2, 3); (0x01aa, 1, 3);
     (0x01e8, 2, 3); (0x033f, 0, 2); (0x0368, 2, 3); (0x037d, 2, 3);
     (0x03d5, 2, 2); (0x03fc, 1, 3); (0x066f, 1, 3); (0x06b4, 2, 3);
     (0x06f6, 2, 2); (0x07b4, 2, 3); (0x07e9, 2, 3); (0x166e, 2, 3);
     (0x17e8, 2, 3) |]

type state = unit

type input = {
  cls : int;  (* index into [classes] *)
  member : Spec.t;  (* the representative under a seeded input transform *)
}

(* Fails when the canonical forms moved: the reference verdicts are keyed
   by representative. *)
let setup () =
  let reps = Hashtbl.create 256 in
  List.iter
    (fun tt -> Hashtbl.replace reps (Tt.to_int tt) ())
    (Mm_engine.Npn.class_reps 4);
  Array.iter
    (fun (v, _, _) ->
      if not (Hashtbl.mem reps v) then
        failwith (Printf.sprintf "npn-%04x is not a 4-input NPN class representative" v))
    classes

(* Row index weight of input variable [i] (1-based). *)
let weight i =
  1 lsl List.find (fun k -> Tt.input_bit 4 (1 lsl k) i) [ 0; 1; 2; 3 ]

(* [f (perm x xor neg)]: a member of [f]'s NPN class. *)
let transform f perm neg =
  Tt.of_fun 4 (fun row ->
      let src = ref 0 in
      for i = 1 to 4 do
        if Tt.input_bit 4 row perm.(i - 1) <> (neg land (1 lsl (i - 1)) <> 0) then
          src := !src lor weight i
      done;
      Tt.eval f !src)

let draw () rng =
  let order = Array.init (Array.length classes) Fun.id in
  Workload.shuffle rng order;
  (* Only members whose canonical transform keeps the output polarity are
     drawn: the engine then solves the representative itself, so every seed
     does the same SAT work. *)
  let rec member rep tries =
    let perm = [| 1; 2; 3; 4 |] in
    Workload.shuffle rng perm;
    let tt = transform rep perm (Random.State.int rng 16) in
    if Mm_engine.Npn.is_input_only (snd (Mm_engine.Npn.canon tt)) then tt
    else if tries > 0 then member rep (tries - 1)
    else rep
  in
  Array.map
    (fun cls ->
      let v, _, _ = classes.(cls) in
      let tt = member (Tt.of_int 4 v) 100 in
      { cls; member = Spec.make ~name:(Printf.sprintf "npn-%04x" v) [| tt |] })
    order

let count_attempts (attempts : Synth.attempt list) =
  let open Measure in
  List.iter
    (fun (a : Synth.attempt) ->
      let s = a.Synth.solver_stats in
      counti "sat.conflicts" s.Solver.conflicts;
      counti "sat.decisions" s.Solver.decisions;
      counti "sat.propagations" s.Solver.propagations;
      counti "sat.restarts" s.Solver.restarts;
      count "sat.time_s" a.Synth.time_s;
      Hashtbl.replace counters "sat.peak_learnts"
        (Float.max (counter "sat.peak_learnts") (float_of_int s.Solver.peak_learnts));
      counti "encode.vars" a.Synth.vars;
      counti "encode.clauses" a.Synth.clauses)
    attempts

let run () inp =
  let v, n_r, n_vs = classes.(inp.cls) in
  let spec = inp.member in
  let cache = Cache.create () in
  let cfg =
    Engine.config ~timeout_per_call:probe_budget_s ~max_rops:4 ~max_steps:3
      ~domains:1 ~cache ()
  in
  let (results, summary), latency =
    Measure.timed (fun () -> Measure.span "engine" (fun () -> Engine.run cfg [| spec |]))
  in
  let r = results.(0) in
  let rep = r.Engine.report in
  count_attempts rep.Synth.attempts;
  Workload.count_cache (Cache.counters cache);
  Measure.counti "engine.classes" summary.Engine.classes;
  Measure.counti "engine.solver_calls" summary.Engine.solver_calls;
  Measure.counti "cost_total" (n_r + n_vs);
  let name = Spec.name spec in
  let fail fmt = Printf.ksprintf (fun s -> [ name ^ ": " ^ s ]) fmt in
  let verdict =
    match rep.Synth.best with
    | Some (_, a) -> (a.Synth.n_rops, a.Synth.steps_per_leg)
    | None -> (-1, -1)
  in
  let proofs = rep.Synth.rops_proven_minimal && rep.Synth.steps_proven_minimal in
  let failures =
    (if verdict = (n_r, n_vs) && proofs then []
     else
       fail "N_R=%d N_VS=%d proofs=%b, reference N_R=%d N_VS=%d proofs=true"
         (fst verdict) (snd verdict) proofs n_r n_vs)
    @ (if List.exists (fun a -> a.Synth.verdict = Synth.Timeout) rep.Synth.attempts
       then fail "a solver call timed out" else [])
    @
    match r.Engine.circuit with
    | None -> fail "no circuit"
    | Some c -> Workload.replay_1d spec c
  in
  let c = r.Engine.circuit in
  let size f = match c with Some c -> f c | None -> 0 in
  { Workload.label = Printf.sprintf "npn-%04x" v;
    latency;
    failures;
    steps = size Circuit.n_steps;
    devices = size Circuit.n_devices;
    cycles = size Circuit.n_steps;
    proven = (if r.Engine.optimal then 1 else 0);
    provable = 1;
    fingerprint = Workload.digest c }
