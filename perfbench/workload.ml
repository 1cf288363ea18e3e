(* What every workload hands back to the main program, [mmbench.ml]. *)

(* One operation of the closed loop: one compile, or one class. *)
type op = {
  label : string;  (* function or class name *)
  latency : float;  (* seconds spent in library calls for this operation *)
  failures : string list;  (* failed correctness checks; [] = correct *)
  steps : int;  (* line-array steps N_St = N_VS + N_R of the 1D circuit *)
  devices : int;  (* devices of the 1D circuit *)
  cycles : int;  (* compute cycles on the target array (1D: one per step) *)
  proven : int;  (* blocks or classes whose minimality proofs finished *)
  provable : int;  (* blocks or classes that were probed *)
  fingerprint : string;  (* digest of the produced circuits and schedules *)
}

module type S = sig
  type state
  type input

  val name : string

  (* Wall time of one pass on the reference host; a run makes
     [round (seconds / nominal_pass_s)] passes, at least one. *)
  val nominal_pass_s : float

  (* Per-call SAT budget of the block or class probes, in seconds. *)
  val probe_budget_s : float

  (* How often set-up is repeated to report its median. *)
  val setup_reps : int
  val setup : unit -> state

  (* The inputs of one pass, drawn from the seeded generator. *)
  val draw : state -> Random.State.t -> input array

  (* Runs one operation. In a traced run ([!Measure.tracing]) the pipeline
     is split into its layers, each call wrapped in [Measure.span]; the
     outputs must be identical to the untraced path. *)
  val run : state -> input -> op
end

(* The 1D reference check: replay [c] on the line-array simulator for every
   input row and compare with [spec]'s truth table. *)
let replay_1d spec c =
  let bad =
    Measure.span "validate" (fun () ->
        Mm_core.Schedule.verify (Mm_core.Schedule.plan c) spec)
  in
  Measure.counti "validate.rows" (1 lsl Mm_boolfun.Spec.arity spec);
  match bad with
  | [] -> []
  | rows ->
    [ Printf.sprintf "%s: line-array replay wrong on %d row(s)"
        (Mm_boolfun.Spec.name spec) (List.length rows) ]

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))

(* Fisher-Yates, in place. *)
let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* Library and cache counters shared by the two mapping workloads. *)
let count_cache (k : Mm_engine.Cache.counters) =
  Measure.counti "cache.hits" k.Mm_engine.Cache.hits;
  Measure.counti "cache.misses" k.Mm_engine.Cache.misses;
  Measure.counti "cache.stale" k.Mm_engine.Cache.stale;
  Measure.counti "cache.atlas_hits" k.Mm_engine.Cache.atlas_hits

let count_stitch (r : Mm_map.Stitch.result) =
  let module S = Mm_map.Stitch in
  let placed = r.S.stitched.S.placed in
  Measure.counti "aig.ands" r.S.aig_ands;
  Measure.counti "probe.lookups" r.S.lib_lookups;
  Measure.counti "probe.memo_hits" r.S.lib_memo_hits;
  Measure.counti "probe.exact" r.S.lib_exact;
  Measure.counti "probe.fallbacks" r.S.lib_fallbacks;
  Measure.counti "probe.nonoptimal_blocks"
    (List.length (List.filter (fun p -> not p.S.optimal) placed));
  Measure.counti "mapper.blocks" (List.length placed);
  Measure.counti "mapper.depth" r.S.dag.Mm_map.Mapper.depth;
  Measure.counti "stitch.inverters" r.S.stitched.S.inverters;
  Measure.counti "stitch.shared_inverters" r.S.stitched.S.shared_inverters

(* The front half of [Stitch.compile], one library call per span. The
   fresh [Mapper.compute] (span "map.fresh") pays every block probe; the
   re-run on the now-warm library (span "map.warm") costs the mapper alone,
   so probe time is the difference. *)
let traced_stitch ?balance_xor ?v_weight cfg spec =
  let module Mapper = Mm_map.Mapper in
  let module Blocklib = Mm_map.Blocklib in
  let open Measure in
  let k = 4 and cut_limit = 8 and passes = 3 in
  let aig = span "aig" (fun () -> Mm_map.Aig.of_spec ?balance:balance_xor spec) in
  let cuts = span "cut" (fun () -> Mm_map.Cut.enumerate aig ~k ~limit:cut_limit) in
  counti "cut.cuts" (Array.fold_left (fun n l -> n + List.length l) 0 cuts);
  let lib = Blocklib.create cfg in
  let compute () = Mapper.compute ?v_weight aig ~lib ~k ~cut_limit ~passes in
  let mapping = span "map.fresh" compute in
  let lookups, hits, exact, fallbacks = Blocklib.stats lib in
  let again = span "map.warm" compute in
  if again.Mapper.blocks <> mapping.Mapper.blocks then
    failwith "Mapper.compute on a warm library chose another cover";
  let dag = span "map.dag" (fun () -> Mapper.dag mapping) in
  let stitched = span "stitch" (fun () -> Mm_map.Stitch.lower spec mapping) in
  { Mm_map.Stitch.stitched; mapping; dag;
    aig_inputs = Mm_map.Aig.n_inputs aig;
    aig_ands = Mm_map.Aig.n_ands aig;
    lib_lookups = lookups;
    lib_memo_hits = hits;
    lib_exact = exact;
    lib_fallbacks = fallbacks }
