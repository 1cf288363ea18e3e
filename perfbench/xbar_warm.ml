(* xbar-warm: a seeded stream of crossbar recompiles, each what
   `mmsynth map --target xbar --resyn` does — Xstitch.compile,
   Resyn.optimize_xbar, a replay of the schedule on the crossbar simulator
   and a row-by-row comparison with the 1D circuit of the same cover.
   Set-up compiles every catalogue function once, so the blocks of the
   timed part are all read from the warm result cache. Each pass visits
   the whole catalogue in a seeded order. *)

module Spec = Mm_boolfun.Spec
module Arith = Mm_boolfun.Arith
module Circuit = Mm_core.Circuit
module Schedule = Mm_core.Schedule
module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Atlas = Mm_atlas.Atlas
module Stitch = Mm_map.Stitch
module Place = Mm_map.Place
module Xsched = Mm_map.Xsched
module Xstitch = Mm_map.Xstitch
module Resyn = Mm_resyn.Resyn

let name = "xbar-warm"
let nominal_pass_s = 1.25

(* The R-op cap of the map command's effort 1 with a per-call budget that no
   probe of the catalogue reaches (the slowest takes a few seconds): the
   warm cache, and with it every timed compile, then does not depend on
   machine speed. At effort 2 (0.5 s per call) probes time out depending on
   load, and the catalogue's cycles drifted between 177 and 184 from run to
   run. *)
let probe_budget_s = 10.
let max_rops = 5
let setup_reps = 1

let catalogue =
  [| ("adder2", Arith.adder_bits 2); ("adder3", Arith.adder_bits 3);
     ("cmp3", Arith.comparator 3); ("cmp4", Arith.comparator 4);
     ("majority5", Arith.majority 5); ("majority7", Arith.majority 7);
     ("mul2", Arith.multiplier 2); ("mul3", Arith.multiplier 3);
     ("mux41", Arith.mux41) |]

type state = { cfg : Engine.config; cache : Cache.t }
type input = int

(* the map command's crossbar defaults *)
let rows = 16
let ports = 4

let compile cfg spec =
  Resyn.optimize_xbar ~rows ~ports cfg spec (Xstitch.compile ~rows ~ports cfg spec)

let setup () =
  let cache = Cache.create () in
  (match Atlas.load Adder4_cold.atlas_path with
   | Ok a -> Atlas.attach a cache
   | Error e ->
     failwith (Format.asprintf "%s: %a" Adder4_cold.atlas_path Atlas.pp_error e));
  let cfg =
    Engine.config ~timeout_per_call:probe_budget_s ~max_rops ~domains:1
      ~taps:Mm_core.Encode.Final_only ~cache ()
  in
  Array.iter (fun (_, spec) -> ignore (compile cfg spec)) catalogue;
  Cache.reset_counters cache;
  { cfg; cache }

let draw _ rng =
  let a = Array.init (Array.length catalogue) Fun.id in
  Workload.shuffle rng a;
  a

(* [Xstitch.compile] and [Resyn.optimize_xbar], one library call per span;
   the extra greedy-only schedule splits out the SAT polish. *)
let traced_compile cfg spec =
  let open Measure in
  let st = Workload.traced_stitch ~balance_xor:true ~v_weight:2.0 cfg spec in
  let place = span "place" (fun () -> Place.place ~rows st.Stitch.mapping) in
  ignore (span "xsched.greedy" (fun () -> Xsched.build ~ports ~polish:false place));
  let sched = span "xsched" (fun () -> Xsched.build ~ports ~polish:true place) in
  let verified = span "xreplay" (fun () -> Xstitch.verify sched spec = []) in
  counti "xreplay.rows" (1 lsl Spec.arity spec);
  let xr =
    { Xstitch.stitch = st; sched;
      cycles = Xsched.n_cycles sched;
      readout = Array.length place.Place.outputs;
      transfers = Array.length place.Place.xfers;
      rows_used = place.Place.n_rows;
      cols_used = place.Place.n_cols;
      verified }
  in
  span "xresyn" (fun () -> Resyn.optimize_xbar ~rows ~ports cfg spec xr)

(* Zero-trust checks of one schedule: a full crossbar replay (outputs and
   device counters against the schedule's claims), then row-by-row
   agreement with the line-array replay of the 1D circuit of the same
   cover. *)
let check spec (res : Xstitch.result) =
  let n_rows = 1 lsl Spec.arity spec in
  let bad = Measure.span "xreplay" (fun () -> Xstitch.verify res.Xstitch.sched spec) in
  Measure.counti "xreplay.rows" n_rows;
  let c = res.Xstitch.stitch.Stitch.stitched.Stitch.circuit in
  let disagree =
    Measure.span "validate" (fun () ->
        let plan = Schedule.plan c in
        let d = ref 0 in
        for input = 0 to n_rows - 1 do
          let line = Schedule.execute plan ~input () in
          let xrow = Xstitch.execute res.Xstitch.sched ~input () in
          if
            Xstitch.word_of line.Schedule.outputs
            <> Xstitch.word_of xrow.Xstitch.outputs
          then incr d
        done;
        !d)
  in
  Measure.counti "validate.rows" n_rows;
  let name = Spec.name spec in
  (if bad = [] && res.Xstitch.verified then []
   else [ Printf.sprintf "%s: crossbar replay wrong on %d row(s)" name (List.length bad) ])
  @ (if disagree = 0 then []
     else [ Printf.sprintf "%s: crossbar and 1D disagree on %d row(s)" name disagree ])

let run st i =
  let label, spec = catalogue.(i) in
  Cache.reset_counters st.cache;
  let (x, failures), latency =
    Measure.timed (fun () ->
        let x =
          if !Measure.tracing then traced_compile st.cfg spec else compile st.cfg spec
        in
        (x, check spec x.Resyn.result))
  in
  let res = x.Resyn.result in
  let sched = res.Xstitch.sched in
  Workload.count_stitch res.Xstitch.stitch;
  Workload.count_cache (Cache.counters st.cache);
  let open Measure in
  counti "place.xfers" res.Xstitch.transfers;
  counti "place.rows_used" res.Xstitch.rows_used;
  counti "xsched.v_cycles" sched.Xsched.v_cycles;
  counti "xsched.r_cycles" sched.Xsched.r_cycles;
  counti "xsched.t_cycles" sched.Xsched.t_cycles;
  counti "xsched.polish_gain" sched.Xsched.polish_gain;
  counti "xresyn.merges_attempted" x.Resyn.xstats.Resyn.merges_attempted;
  counti "xresyn.merges_accepted" x.Resyn.xstats.Resyn.merges_accepted;
  counti ("cycles." ^ label) res.Xstitch.cycles;
  let c = res.Xstitch.stitch.Stitch.stitched.Stitch.circuit in
  let placed = res.Xstitch.stitch.Stitch.stitched.Stitch.placed in
  { Workload.label;
    latency;
    failures;
    steps = Circuit.n_steps c;
    devices = Circuit.n_devices c;
    cycles = res.Xstitch.cycles;
    proven = List.length (List.filter (fun p -> p.Stitch.optimal) placed);
    provable = List.length placed;
    fingerprint = Workload.digest (sched.Xsched.cycles, c) }
