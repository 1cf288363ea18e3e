(* adder4-cold: one cold `mmsynth map --workload adder4 --resyn --atlas
   examples/atlas-tier1.mmatlas` per operation — a fresh in-memory result
   cache with the shipped atlas attached, the map command's default probe
   budget (effort 2), resynthesis, and line-array validation of every row.
   The input is fixed by design; the seed does not change it. *)

module Spec = Mm_boolfun.Spec
module Circuit = Mm_core.Circuit
module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Atlas = Mm_atlas.Atlas
module Stitch = Mm_map.Stitch
module Resyn = Mm_resyn.Resyn

let name = "adder4-cold"
let nominal_pass_s = 21.
let probe_budget_s = 0.5
let setup_reps = 25
let atlas_path = "examples/atlas-tier1.mmatlas"

type state = { atlas : Atlas.t; spec : Spec.t }
type input = unit

let setup () =
  match Atlas.load atlas_path with
  | Ok atlas -> { atlas; spec = Mm_boolfun.Arith.adder_bits 4 }
  | Error e -> failwith (Format.asprintf "%s: %a" atlas_path Atlas.pp_error e)

let draw _ _ = [| () |]

let run st () =
  let spec = st.spec in
  let cache = Cache.create () in
  Atlas.attach st.atlas cache;
  let cfg =
    Engine.config ~timeout_per_call:probe_budget_s ~max_rops:8 ~domains:1
      ~taps:Mm_core.Encode.Final_only ~cache ()
  in
  let (r, t, failures), latency =
    Measure.timed (fun () ->
        if not !Measure.tracing then begin
          let r = Stitch.compile cfg spec in
          let t = Resyn.optimize cfg spec r.Stitch.stitched.Stitch.circuit in
          (r, t, Workload.replay_1d spec t.Resyn.circuit)
        end
        else begin
          let open Measure in
          let r = Workload.traced_stitch cfg spec in
          let c = r.Stitch.stitched.Stitch.circuit in
          ignore (span "resyn.sweep_once" (fun () -> Resyn.sweep_merge c));
          ignore (span "resyn.dce_once" (fun () -> Resyn.dce c));
          ignore (span "resyn.compact_once" (fun () -> Resyn.compact_legs c));
          let t = span "resyn" (fun () -> Resyn.optimize cfg spec c) in
          (r, t, Workload.replay_1d spec t.Resyn.circuit)
        end)
  in
  Workload.count_stitch r;
  Workload.count_cache (Cache.counters cache);
  let s = t.Resyn.stats in
  Measure.counti "resyn.windows_attempted" s.Resyn.windows_attempted;
  Measure.counti "resyn.windows_accepted" s.Resyn.windows_accepted;
  Measure.counti "resyn.probe_calls" s.Resyn.probe_calls;
  Measure.counti "resyn.steps_before" s.Resyn.steps_before;
  Measure.counti "resyn.steps_saved" (s.Resyn.steps_before - s.Resyn.steps_after);
  let c = t.Resyn.circuit in
  let placed = r.Stitch.stitched.Stitch.placed in
  { Workload.label = Spec.name spec;
    latency;
    failures;
    steps = Circuit.n_steps c;
    devices = Circuit.n_devices c;
    cycles = Circuit.n_steps c;
    proven = List.length (List.filter (fun p -> p.Stitch.optimal) placed);
    provable = List.length placed;
    fingerprint = Workload.digest (r.Stitch.stitched.Stitch.circuit, c) }
