(* The repository benchmark: three seeded closed-loop workloads over the
   public library entry points of `mmsynth map`, `map --target xbar --resyn`
   and `batch`, each output checked against a reference the compiler does
   not produce. See perfbench/README.md.

     bash perfbench/run.sh --workload adder4-cold|npn4-synth|xbar-warm|all
       --seed N --seconds S --trace 0|1

   An untraced run prints the end-to-end metrics of BENCHMARK.json, a traced
   run its per-layer metrics; both print every metric by name with its unit,
   then one JSON result as the last line. Exit code 1 when a check failed,
   2 on a usage or set-up error (no result printed). *)

module Json = Mm_report.Json

let schema = "mmbench-v1"

let workloads : (string * (module Workload.S)) list =
  [ (Adder4_cold.name, (module Adder4_cold));
    (Npn4_synth.name, (module Npn4_synth));
    (Xbar_warm.name, (module Xbar_warm)) ]

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("mmbench: " ^ s); exit 2) fmt

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The metric names and units of BENCHMARK.json: (end_to_end, per_layer). *)
let benchmark_metrics () =
  let metrics key j =
    match Json.get Json.to_list key j with
    | None -> die "BENCHMARK.json: no %s list" key
    | Some l ->
      List.map
        (fun m ->
          match Json.get Json.to_str "name" m, Json.get Json.to_str "unit" m with
          | Some n, Some u -> (n, u)
          | _ -> die "BENCHMARK.json: %s entry without name or unit" key)
        l
  in
  match Json.of_string (read_file "BENCHMARK.json") with
  | Ok j -> (metrics "end_to_end" j, metrics "per_layer" j)
  | Error e -> die "BENCHMARK.json: %s" e
  | exception Sys_error e -> die "%s" e

let commit () =
  let line p = String.trim (read_file p) in
  match line ".git/HEAD" with
  | head when String.starts_with ~prefix:"ref: " head ->
    (try line (".git/" ^ String.sub head 5 (String.length head - 5))
     with Sys_error _ -> head)
  | head -> head
  | exception Sys_error _ -> "unknown"

let failed_op e latency =
  { Workload.label = "exception"; latency; failures = [ Printexc.to_string e ];
    steps = 0; devices = 0; cycles = 0; proven = 0; provable = 0;
    fingerprint = "" }

let sum f ops = List.fold_left (fun n o -> n + f o) 0 ops

(* Per-layer metrics of the traced pass. *)
let layer_metrics ~wall ~untraced_wall =
  let open Measure in
  let c = counter and s = layer_s in
  let spans = Hashtbl.fold (fun _ a t -> t +. a.secs) accs 0. in
  let gc f = float_of_int (Hashtbl.fold (fun _ a n -> n + f a) accs 0) in
  let other = wall -. spans in
  let cycles =
    List.map
      (fun (fn, _) -> ("cycles." ^ fn, c ("cycles." ^ fn), "count"))
      (Array.to_list Xbar_warm.catalogue)
  in
  [ ("aig.s", s "aig", "s"); ("aig.ands", c "aig.ands", "count");
    ("aig.alloc_mw", layer_mw "aig", "Mword");
    ("cut.s", s "cut", "s"); ("cut.cuts", c "cut.cuts", "count");
    (* the traced pass runs the mapper twice: on a fresh library (probes
       included) and on the warm one; both calls' mapper share counts *)
    ("mapper.s", (2. *. s "map.warm") +. s "map.dag", "s");
    ("mapper.blocks", c "mapper.blocks", "count");
    ("mapper.depth", c "mapper.depth", "count");
    ("probe.s", s "map.fresh" -. s "map.warm", "s");
    ("probe.lookups", c "probe.lookups", "count");
    ("probe.memo_hit_ratio", ratio (c "probe.memo_hits") (c "probe.lookups"), "ratio");
    ("probe.exact", c "probe.exact", "count");
    ("probe.fallbacks", c "probe.fallbacks", "count");
    ("probe.nonoptimal_blocks", c "probe.nonoptimal_blocks", "count");
    ( "cache.hit_ratio",
      ratio
        (c "cache.hits" +. c "cache.atlas_hits")
        (c "cache.hits" +. c "cache.atlas_hits" +. c "cache.misses" +. c "cache.stale"),
      "ratio" );
    ("cache.misses", c "cache.misses", "count");
    ("cache.atlas_hits", c "cache.atlas_hits", "count");
    ("stitch.s", s "stitch", "s");
    ("stitch.inverters", c "stitch.inverters", "count");
    ("stitch.shared_inverters", c "stitch.shared_inverters", "count");
    ("resyn.s", s "resyn", "s");
    ("resyn.sweep_once_s", s "resyn.sweep_once", "s");
    ("resyn.dce_once_s", s "resyn.dce_once", "s");
    ("resyn.compact_once_s", s "resyn.compact_once", "s");
    ( "resyn.window_accept_ratio",
      ratio (c "resyn.windows_accepted") (c "resyn.windows_attempted"),
      "ratio" );
    ("resyn.probe_calls", c "resyn.probe_calls", "count");
    ("resyn.steps_saved", c "resyn.steps_saved", "count");
    ("resyn.alloc_mw", layer_mw "resyn", "Mword");
    ("validate.s", s "validate", "s");
    ("validate.rows", c "validate.rows", "count");
    ("validate.alloc_mw", layer_mw "validate", "Mword");
    ("place.s", s "place", "s");
    ("place.xfers", c "place.xfers", "count");
    ("place.rows_used", c "place.rows_used", "count");
    ("xsched.s", s "xsched", "s");
    ("xsched.greedy_s", s "xsched.greedy", "s");
    ("xsched.polish_gain", c "xsched.polish_gain", "count");
    ("xsched.v_cycles", c "xsched.v_cycles", "count");
    ("xsched.r_cycles", c "xsched.r_cycles", "count");
    ("xsched.t_cycles", c "xsched.t_cycles", "count");
    ("xreplay.s", s "xreplay", "s");
    ("xreplay.rows", c "xreplay.rows", "count");
    ("xresyn.s", s "xresyn", "s");
    ( "xresyn.merge_accept_ratio",
      ratio (c "xresyn.merges_accepted") (c "xresyn.merges_attempted"),
      "ratio" );
    ("engine.s", s "engine", "s");
    ("engine.classes", c "engine.classes", "count");
    ("engine.solver_calls", c "engine.solver_calls", "count");
    ("sat.conflicts", c "sat.conflicts", "count");
    ("sat.decisions", c "sat.decisions", "count");
    ("sat.propagations", c "sat.propagations", "count");
    ("sat.restarts", c "sat.restarts", "count");
    ("sat.props_per_s", ratio (c "sat.propagations") (c "sat.time_s"), "1/s");
    ("sat.conflicts_per_s", ratio (c "sat.conflicts") (c "sat.time_s"), "1/s");
    ("sat.peak_learnts", c "sat.peak_learnts", "count");
    ( "sat.alloc_words_per_conflict",
      ratio (1e6 *. layer_mw "engine") (c "sat.conflicts"),
      "word/conflict" );
    ("encode.vars", c "encode.vars", "count");
    ("encode.clauses", c "encode.clauses", "count");
    ("gc.minor_collections", gc (fun a -> a.minor), "count");
    ("gc.major_collections", gc (fun a -> a.major), "count");
    ("gc.alloc_mw", Hashtbl.fold (fun _ a t -> t +. a.words) accs 0. /. 1e6, "Mword");
    ("other.s", other, "s");
    ("trace.wall_s", wall, "s");
    ("trace.overhead_s", wall -. untraced_wall, "s") ]
  @ cycles

let print_metrics title l =
  Printf.printf "%s\n" title;
  List.iter (fun (n, v, u) -> Printf.printf "  %-30s %14.6g %s\n" n v u) l

let run_workload (module W : Workload.S) ~seed ~seconds ~trace =
  let e2e_names, layer_names = benchmark_metrics () in
  let st = ref None in
  let setup_times =
    List.init W.setup_reps (fun _ ->
        match Measure.timed W.setup with
        | s, dt ->
          st := Some s;
          dt
        | exception e -> die "%s set-up: %s" W.name (Printexc.to_string e))
  in
  let st = Option.get !st in
  (* Each operation starts after a full major collection: otherwise it
     pays for the garbage of whichever operation the seed put before it.
     (Gc.compact would also isolate operations, but each one then re-grows
     the heap page by page, and short operations swing by 30% from run to
     run.) The collection is not timed; a pass's wall time is the sum of
     its operations'. *)
  let run_pass inputs =
    let ops =
      Array.map
        (fun inp ->
          Gc.full_major ();
          let t0 = Measure.now () in
          let op = try W.run st inp with e -> failed_op e (Measure.now () -. t0) in
          (op, Measure.now () -. t0))
        inputs
    in
    ( Array.to_list (Array.map fst ops),
      Array.fold_left (fun t (_, w) -> t +. w) 0. ops )
  in
  let passes = max 1 (Float.to_int (Float.round (seconds /. W.nominal_pass_s))) in
  let stamp =
    Json.Obj
      [ ("schema", Json.String schema); ("commit", Json.String (commit ()));
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml_version", Json.String Sys.ocaml_version);
        ("workload", Json.String W.name); ("seed", Json.Int seed);
        ("seconds", Json.Float seconds); ("passes", Json.Int passes);
        ("trace", Json.Bool trace); ("probe_budget_s", Json.Float W.probe_budget_s) ]
  in
  Printf.printf "stamp %s\n%!" (Json.to_string stamp);
  let rng = Random.State.make [| seed; Hashtbl.hash W.name |] in
  Measure.reset ();
  let ops, metrics, select =
    if not trace then begin
      (* counters are reset per pass and report the last one; every pass of
         a workload repeats the same blocks and classes *)
      let runs =
        List.init passes (fun _ ->
            Hashtbl.reset Measure.counters;
            run_pass (W.draw st rng))
      in
      let ops = List.concat_map fst runs in
      let wall = List.fold_left (fun t (_, w) -> t +. w) 0. runs in
      let lat = List.map (fun o -> o.Workload.latency) ops in
      let tail_label, tail = Measure.tail lat in
      let per_pass f = float_of_int (sum f ops) /. float_of_int passes in
      let heap = Gc.quick_stat () in
      let attempted = float_of_int (List.length ops) in
      let failed = List.filter (fun o -> o.Workload.failures <> []) ops in
      let e2e =
        [ ("setup_s", Measure.median setup_times, "s");
          ("wall_s", wall, "s");
          ("latency_p50_s", Measure.median lat, "s");
          ("latency_tail_s", tail, "s");
          ("ops_per_s", attempted /. wall, "1/s");
          ("steps_total", per_pass (fun o -> o.Workload.steps), "count");
          ("devices_total", per_pass (fun o -> o.Workload.devices), "count");
          ("cycles_total", per_pass (fun o -> o.Workload.cycles), "count");
          ( "proven_share",
            Measure.ratio
              (float_of_int (sum (fun o -> o.Workload.proven) ops))
              (float_of_int (sum (fun o -> o.Workload.provable) ops)),
            "ratio" );
          ( "peak_heap_mb",
            float_of_int (heap.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.,
            "MB" ) ]
      in
      print_metrics
        (Printf.sprintf "end-to-end (%d operations; latency_tail_s is the %s)"
           (List.length ops) tail_label)
        e2e;
      print_metrics "report only"
        (("failed_share", Measure.ratio (float_of_int (List.length failed)) attempted, "ratio")
         :: List.map
             (fun label ->
               ( label ^ ".latency_p50_s",
                 Measure.median
                   (List.filter_map
                      (fun o -> if o.Workload.label = label then Some o.Workload.latency else None)
                      ops),
                 "s" ))
             (List.sort_uniq compare (List.map (fun o -> o.Workload.label) ops)));
      print_metrics "library counters (last pass)"
        (List.sort compare
           (Hashtbl.fold
              (fun n v l ->
                (n, v, if String.ends_with ~suffix:"_s" n then "s" else "count") :: l)
              Measure.counters []));
      (ops, e2e, e2e_names)
    end
    else begin
      let inputs = W.draw st rng in
      let reference, untraced_wall = run_pass inputs in
      Measure.reset ();
      Measure.tracing := true;
      let traced, wall = run_pass inputs in
      Measure.tracing := false;
      let fidelity =
        List.map2
          (fun (u : Workload.op) (t : Workload.op) ->
            if u.Workload.fingerprint = t.Workload.fingerprint then t
            else
              { t with
                Workload.failures =
                  t.Workload.failures
                  @ [ Printf.sprintf
                        "%s: traced run differs from untraced (%d/%d steps, %d/%d cycles)"
                        t.Workload.label t.Workload.steps u.Workload.steps
                        t.Workload.cycles u.Workload.cycles ] })
          reference traced
      in
      let layers = layer_metrics ~wall ~untraced_wall in
      print_metrics "per layer (one traced pass)" layers;
      let _, other, _ = List.find (fun (n, _, _) -> n = "other.s") layers in
      Printf.printf "  other.s is %.1f%% of the traced wall time\n"
        (100. *. Measure.ratio other wall);
      (reference @ fidelity, layers, layer_names)
    end
  in
  List.iter
    (fun o ->
      List.iter (fun f -> Printf.printf "FAILED %s\n" f) o.Workload.failures)
    ops;
  let selected =
    List.map
      (fun (name, unit_) ->
        match List.find_opt (fun (n, _, _) -> n = name) metrics with
        | Some (_, v, u) when u = unit_ -> (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.String u) ])
        | Some (_, _, u) -> die "metric %s has unit %s, BENCHMARK.json says %s" name u unit_
        | None -> die "BENCHMARK.json names metric %s, which %s does not compute" name W.name)
      select
  in
  let failed = List.length (List.filter (fun o -> o.Workload.failures <> []) ops) in
  print_endline
    (Json.to_string
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0));
            ("attempted", Json.Int (List.length ops));
            ("failed", Json.Int failed);
            ("metrics", Json.Obj selected) ]));
  if failed > 0 then exit 1

(* [--workload all]: every workload in its own process, one after the
   other, so each starts cold. *)
let run_all ~seed ~seconds ~trace =
  let worst =
    List.fold_left
      (fun worst (name, _) ->
        let args =
          [| Sys.executable_name; "--workload"; name; "--seed"; string_of_int seed;
             "--seconds"; Printf.sprintf "%g" seconds; "--trace"; (if trace then "1" else "0") |]
        in
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        match snd (Unix.waitpid [] pid) with
        | Unix.WEXITED 0 -> worst
        | Unix.WEXITED c -> max worst c
        | _ -> max worst 2)
      0 workloads
  in
  exit worst

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 30. and trace = ref 0 in
  let spec =
    [ ("--workload", Arg.Set_string workload,
       "NAME adder4-cold, npn4-synth, xbar-warm or all");
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S run length on the reference host (default 30)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics") ]
  in
  let usage = "mmbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]" in
  (try Arg.parse_argv Sys.argv spec (fun a -> raise (Arg.Bad ("unexpected " ^ a))) usage
   with Arg.Bad m | Arg.Help m -> prerr_string m; exit 2);
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  if !seconds <= 0. then die "--seconds must be positive";
  let trace = !trace = 1 in
  match !workload with
  | "all" -> run_all ~seed:!seed ~seconds:!seconds ~trace
  | name -> (
    match List.assoc_opt name workloads with
    | Some w -> run_workload w ~seed:!seed ~seconds:!seconds ~trace
    | None -> die "unknown workload %S\n%s" name usage)
