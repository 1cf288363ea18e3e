module Resyn = Mm_resyn.Resyn
module Window = Mm_resyn.Window
module Extract = Mm_resyn.Extract
module Artifact = Mm_resyn.Artifact
module Stitch = Mm_map.Stitch
module Xstitch = Mm_map.Xstitch
module Engine = Mm_engine.Engine
module Cache = Mm_engine.Cache
module Arith = Mm_boolfun.Arith
module Spec = Mm_boolfun.Spec
module Tt = Mm_boolfun.Truth_table
module Literal = Mm_boolfun.Literal
module C = Mm_core.Circuit
module Schedule = Mm_core.Schedule

(* one memory-only cache shared by every compile in this binary: the specs
   below revisit the same NPN classes over and over *)
let shared_cache = lazy (Cache.create ())

let cfg () =
  Engine.config ~timeout_per_call:0.05 ~max_rops:5 ~domains:1
    ~cache:(Lazy.force shared_cache) ()

let specs = [ Arith.adder_bits 2; Arith.majority 5; Arith.parity 5 ]

let stitched spec = (Stitch.compile (cfg ()) spec).Stitch.stitched.Stitch.circuit

(* ------------------------------------------------------------------ *)
(* Window extraction: the tabulated function must reproduce the        *)
(* live-out on every global input row                                  *)
(* ------------------------------------------------------------------ *)

(* [Extract.table] claims x_{i+1} of the extracted table is live_in.(i),
   with the paper's convention (x_1 = MSB of the row index). Check it
   against the whole-circuit oracle: on every global row, evaluating the
   extracted table on the live-in values must give the live-out value. *)
let check_windows spec c =
  let windows = Window.enumerate c in
  let rows = 1 lsl c.C.arity in
  let values = C.rop_values c in
  List.iter
    (fun (w : Window.t) ->
      let fn = Extract.table c w in
      let k = Array.length fn.Extract.live_in in
      let live_tts = Array.map (C.source_value c values) fn.Extract.live_in in
      let out_tt = values.(w.Window.live_out) in
      for q = 0 to rows - 1 do
        let wrow = ref 0 in
        Array.iteri
          (fun i tt ->
            if Tt.eval tt q then wrow := !wrow lor (1 lsl (k - 1 - i)))
          live_tts;
        if Tt.eval fn.Extract.tt !wrow <> Tt.eval out_tt q then
          Alcotest.failf "%s: window at R%d (width %d) wrong on row %d"
            (Spec.name spec) w.Window.live_out (Window.width w) q
      done)
    windows;
  windows

let test_extract_equivalence () =
  List.iter (fun spec -> ignore (check_windows spec (stitched spec))) specs

(* the V/R boundary: stitched circuits feed R-ops from leg taps, so the
   enumeration must surface windows whose live-ins cross into the V part
   (From_leg / From_vop), and those windows must extract correctly too
   (checked above; here we assert the coverage is real, not vacuous) *)
let test_extract_vr_boundary () =
  let crossing =
    List.exists
      (fun spec ->
        let c = stitched spec in
        List.exists
          (fun (w : Window.t) ->
            Array.exists
              (function
                | C.From_leg _ | C.From_vop _ -> true
                | C.From_literal _ | C.From_rop _ -> false)
              w.Window.live_in)
          (Window.enumerate c))
      specs
  in
  Alcotest.(check bool) "some window taps the V part" true crossing

(* ------------------------------------------------------------------ *)
(* Cleanup sweeps                                                      *)
(* ------------------------------------------------------------------ *)

let test_sweep_dce_preserve () =
  List.iter
    (fun spec ->
      let c = stitched spec in
      let c1, merged = Resyn.sweep_merge c in
      Alcotest.(check bool)
        (Spec.name spec ^ " sweep preserves")
        true
        (C.realizes c1 spec = Ok ());
      let c2, removed = Resyn.dce c1 in
      Alcotest.(check bool)
        (Spec.name spec ^ " dce preserves")
        true
        (C.realizes c2 spec = Ok ());
      Alcotest.(check int)
        (Spec.name spec ^ " dce drops what it counts")
        (C.n_rops c1 - removed) (C.n_rops c2);
      Alcotest.(check bool)
        (Spec.name spec ^ " counters non-negative")
        true
        (merged >= 0 && removed >= 0))
    specs

(* Differential oracle for [Resyn.sweep_merge]: the same sweep, but
   re-evaluating the whole R-op chain for every index it looks up (the
   quadratic pre-image of the one-pass sweep). Both must return the same
   circuit and merge count. *)
let oracle_sweep_merge (c : C.t) =
  let n = c.C.arity in
  let n_r = C.n_rops c in
  if n > 14 || n_r = 0 then (c, 0)
  else begin
    let map = Hashtbl.create (4 * n_r) in
    let remember tt s =
      let k = Tt.to_string tt in
      if not (Hashtbl.mem map k) then Hashtbl.add map k s
    in
    List.iter
      (fun l -> remember (Literal.table n l) (C.From_literal l))
      (Literal.all n);
    Array.iteri
      (fun l ops ->
        if Array.length ops > 0 then
          remember
            (C.leg_value c ~leg:l ~step:(Array.length ops - 1))
            (C.From_leg l))
      c.C.legs;
    let subst = Array.make n_r None in
    let resolve (s : C.source) =
      match s with
      | C.From_rop r -> (match subst.(r) with Some s' -> s' | None -> s)
      | s -> s
    in
    let merged = ref 0 in
    let rops' = Array.make n_r c.C.rops.(0) in
    for i = 0 to n_r - 1 do
      let r = c.C.rops.(i) in
      rops'.(i) <- { C.in1 = resolve r.C.in1; in2 = resolve r.C.in2 };
      let k = Tt.to_string (C.rop_values c).(i) in
      match Hashtbl.find_opt map k with
      | Some s ->
        subst.(i) <- Some s;
        incr merged
      | None -> Hashtbl.add map k (C.From_rop i)
    done;
    if !merged = 0 then (c, 0)
    else
      ( C.make ~arity:n ~rop_kind:c.C.rop_kind ~legs:c.C.legs ~rops:rops'
          ~outputs:(Array.map resolve c.C.outputs) (),
        !merged )
  end

(* A seeded random circuit: [legs] V-legs of [steps] random V-ops on a
   shared BE rail, then a chain of random R-ops with planted duplicates —
   exact copies and commuted copies of earlier R-ops, and double negations
   of a leg (NOR(NOR(L, L), same) = L) — that the sweep must redirect. *)
let random_chain rng ~n ~legs ~steps ~rops =
  let lits = Array.of_list (Literal.all n) in
  let lit () = lits.(Random.State.int rng (Array.length lits)) in
  let rail = Array.init steps (fun _ -> lit ()) in
  let legs =
    Array.init legs (fun _ ->
        Array.init steps (fun s -> { C.te = lit (); be = rail.(s) }))
  in
  let n_legs = Array.length legs in
  let acc = ref [] and count = ref 0 in
  let push in1 in2 =
    acc := { C.in1; in2 } :: !acc;
    incr count
  in
  let source () =
    match Random.State.int rng 3 with
    | 0 -> C.From_literal (lit ())
    | 1 -> C.From_leg (Random.State.int rng n_legs)
    | _ when !count = 0 -> C.From_leg (Random.State.int rng n_legs)
    | _ -> C.From_rop (Random.State.int rng !count)
  in
  while !count < rops do
    match (Random.State.int rng 6, List.rev !acc) with
    | 0, (_ :: _ as earlier) ->
      let r = List.nth earlier (Random.State.int rng !count) in
      push r.C.in1 r.C.in2
    | 1, (_ :: _ as earlier) ->
      let r = List.nth earlier (Random.State.int rng !count) in
      push r.C.in2 r.C.in1
    | 2, _ when !count + 2 <= rops ->
      let l = C.From_leg (Random.State.int rng n_legs) in
      push l l;
      let inner = C.From_rop (!count - 1) in
      push inner inner
    | _ -> push (source ()) (source ())
  done;
  let rops = Array.of_list (List.rev !acc) in
  let outputs =
    Array.init 3 (fun o -> C.From_rop (Array.length rops - 1 - (o * 2)))
  in
  C.make ~arity:n ~legs ~rops ~outputs ()

let check_sweep_matches_oracle name c =
  let c1, merged = Resyn.sweep_merge c in
  let c2, merged2 = oracle_sweep_merge c in
  Alcotest.(check int) (name ^ " merge count") merged2 merged;
  Alcotest.(check bool) (name ^ " same circuit") true (c1 = c2);
  merged

let test_sweep_matches_oracle () =
  List.iter
    (fun spec ->
      ignore (check_sweep_matches_oracle (Spec.name spec) (stitched spec)))
    [ Arith.adder_bits 2; Arith.adder_bits 3 ];
  let rng = Random.State.make [| 0x5eeb |] in
  let total = ref 0 in
  for i = 1 to 40 do
    let n = 3 + (i mod 4) in
    let c =
      random_chain rng ~n ~legs:(1 + (i mod 5)) ~steps:(1 + (i mod 3))
        ~rops:(8 + (i mod 24))
    in
    total := !total + check_sweep_matches_oracle (Printf.sprintf "chain %d" i) c
  done;
  Alcotest.(check bool) "planted duplicates were merged" true (!total > 0)

(* compact_legs reschedules every leg onto a shortest common supersequence
   of the BE rails: the result must still realize the spec, must still
   satisfy the line array's shared-BE-rail constraint (Schedule.plan raises
   otherwise), must never be longer, and a second application must find
   nothing left (fixed point) *)
let test_compact_legs () =
  List.iter
    (fun spec ->
      let c = stitched spec in
      let c1, saved = Resyn.compact_legs c in
      Alcotest.(check int)
        (Spec.name spec ^ " saved = delta")
        (C.steps_per_leg c - C.steps_per_leg c1)
        saved;
      Alcotest.(check bool) (Spec.name spec ^ " never worse") true (saved >= 0);
      Alcotest.(check bool)
        (Spec.name spec ^ " compaction preserves")
        true
        (C.realizes c1 spec = Ok ());
      let plan = Schedule.plan c1 in
      Alcotest.(check (list int))
        (Spec.name spec ^ " schedulable after compaction")
        []
        (Schedule.verify plan spec);
      let _, saved2 = Resyn.compact_legs c1 in
      Alcotest.(check int) (Spec.name spec ^ " fixed point") 0 saved2)
    specs

(* ------------------------------------------------------------------ *)
(* 1D driver                                                           *)
(* ------------------------------------------------------------------ *)

let test_optimize_never_worse () =
  List.iter
    (fun spec ->
      let c = stitched spec in
      let r = Resyn.optimize (cfg ()) spec c in
      let s = r.Resyn.stats in
      Alcotest.(check int)
        (Spec.name spec ^ " steps_before")
        (C.n_steps c) s.Resyn.steps_before;
      Alcotest.(check int)
        (Spec.name spec ^ " steps_after")
        (C.n_steps r.Resyn.circuit)
        s.Resyn.steps_after;
      Alcotest.(check bool)
        (Spec.name spec ^ " never worse")
        true
        (s.Resyn.steps_after <= s.Resyn.steps_before);
      Alcotest.(check bool)
        (Spec.name spec ^ " result realizes")
        true
        (C.realizes r.Resyn.circuit spec = Ok ());
      let plan = Schedule.plan r.Resyn.circuit in
      Alcotest.(check (list int))
        (Spec.name spec ^ " result schedulable")
        []
        (Schedule.verify plan spec);
      Alcotest.(check bool)
        (Spec.name spec ^ " accepted <= attempted")
        true
        (s.Resyn.windows_accepted <= s.Resyn.windows_attempted))
    specs

(* The cleanup passes alone, iterated to their fixed point. *)
let rec cleanup_fixed_point c =
  let c1, merged = Resyn.sweep_merge c in
  let c2, dead = Resyn.dce c1 in
  let c3, saved = Resyn.compact_legs c2 in
  if merged + dead + saved = 0 then c3 else cleanup_fixed_point c3

(* The mapped specs above are built from optimal blocks and accept no
   window; a QMC->NOR baseline is not, so window rewriting must commit
   splices there and beat what cleanup alone reaches. The probe budget is
   generous so a loaded host cannot turn the splices into timeouts. *)
let test_optimize_commits_splices () =
  let spec = Arith.multiplier 2 in
  let c = Mm_core.Baseline.nor_network spec in
  let cfg = Engine.config ~timeout_per_call:5. ~max_rops:5 ~domains:1 () in
  let r = Resyn.optimize cfg spec c in
  let s = r.Resyn.stats in
  Alcotest.(check bool)
    "a window splice committed" true
    (s.Resyn.windows_accepted >= 1);
  Alcotest.(check bool)
    "result realizes" true
    (C.realizes r.Resyn.circuit spec = Ok ());
  Alcotest.(check (list int))
    "result schedulable" []
    (Schedule.verify (Schedule.plan r.Resyn.circuit) spec);
  let cleaned = C.n_steps (cleanup_fixed_point c) in
  Alcotest.(check bool)
    (Printf.sprintf "fewer steps than cleanup alone (%d < %d)"
       (C.n_steps r.Resyn.circuit) cleaned)
    true
    (C.n_steps r.Resyn.circuit < cleaned)

let test_optimize_rejects_wrong_circuit () =
  (* the driver refuses a circuit that does not realize the spec — a
     resynthesis of the wrong function must never start *)
  let spec = Arith.majority 5 in
  let wrong = stitched (Arith.parity 5) in
  match Resyn.optimize (cfg ()) spec wrong with
  | _ -> Alcotest.fail "wrong input accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool)
      "names the offense" true
      (String.length msg >= 14 && String.sub msg 0 14 = "Resyn.optimize")

(* ------------------------------------------------------------------ *)
(* Crossbar                                                            *)
(* ------------------------------------------------------------------ *)

let test_xbar_transfer_coverage () =
  (* few rows force cross-row operands: the narrow array must actually pay
     peripheral transfer cycles somewhere, not just broadcast/NOR phases,
     and every such schedule must still replay correctly *)
  let results =
    List.map
      (fun spec -> (spec, Xstitch.compile ~rows:4 ~ports:2 (cfg ()) spec))
      [ Arith.adder_bits 2; Arith.majority 5 ]
  in
  List.iter
    (fun (spec, r) ->
      Alcotest.(check bool)
        (Spec.name spec ^ " xbar verified")
        true r.Xstitch.verified)
    results;
  Alcotest.(check bool)
    "transfer cycles exercised" true
    (List.exists (fun (_, r) -> r.Xstitch.transfers > 0) results)

(* ------------------------------------------------------------------ *)
(* Artifact round trip                                                 *)
(* ------------------------------------------------------------------ *)

let test_artifact_round_trip () =
  List.iter
    (fun spec ->
      let c = stitched spec in
      match Artifact.circuit_of_json (Artifact.circuit_to_json c) with
      | Error msg -> Alcotest.failf "%s: circuit: %s" (Spec.name spec) msg
      | Ok c2 ->
        Alcotest.(check bool)
          (Spec.name spec ^ " circuit round trip")
          true
          (C.realizes c2 spec = Ok ());
        Alcotest.(check int)
          (Spec.name spec ^ " steps survive")
          (C.n_steps c) (C.n_steps c2);
        (match Artifact.spec_of_json (Artifact.spec_to_json spec) with
         | Error msg -> Alcotest.failf "%s: spec: %s" (Spec.name spec) msg
         | Ok spec2 ->
           Alcotest.(check string)
             "spec name survives" (Spec.name spec) (Spec.name spec2);
           Alcotest.(check bool)
             (Spec.name spec ^ " spec tables survive")
             true
             (Array.for_all2 Tt.equal (Spec.outputs spec) (Spec.outputs spec2))))
    specs

let () =
  Alcotest.run "resyn"
    [
      ( "extract",
        [
          Alcotest.test_case "window tables vs oracle" `Slow
            test_extract_equivalence;
          Alcotest.test_case "V/R boundary live-ins" `Slow
            test_extract_vr_boundary;
        ] );
      ( "cleanup",
        [
          Alcotest.test_case "sweep + dce preserve" `Slow
            test_sweep_dce_preserve;
          Alcotest.test_case "leg compaction" `Slow test_compact_legs;
          Alcotest.test_case "sweep = per-index oracle" `Slow
            test_sweep_matches_oracle;
        ] );
      ( "optimize",
        [
          Alcotest.test_case "never worse, re-verified" `Slow
            test_optimize_never_worse;
          Alcotest.test_case "wrong circuit rejected" `Quick
            test_optimize_rejects_wrong_circuit;
          Alcotest.test_case "window splices commit" `Slow
            test_optimize_commits_splices;
        ] );
      ( "xbar",
        [
          Alcotest.test_case "transfer cycles covered" `Slow
            test_xbar_transfer_coverage;
        ] );
      ( "artifact",
        [
          Alcotest.test_case "round trip" `Slow test_artifact_round_trip;
        ] );
    ]
