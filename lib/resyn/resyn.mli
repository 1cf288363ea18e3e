(** Windowed SAT-sweeping resynthesis over stitched schedules.

    Post-mapping optimization: the mapper's cut boundaries hide cross-block
    sharing, so the committed implementation is re-examined {e after}
    stitching, where the boundaries are gone. Three cooperating mechanisms
    (cleanup = sweeps + {!compact_legs} leg compaction):

    + {b cleanup sweeps} — semantic sweeping by complete simulation (the
      arity here is small enough that a truth table is cheaper than a SAT
      sweep): any R-op whose global function duplicates an earlier signal
      (literal, final leg value, or earlier R-op) is redirected onto it,
      then dead R-ops are eliminated. This alone captures most cross-block
      inverter/leaf duplication the stitcher could not see.
    + {b window rewrites} — every legal {!Window.t} is extracted
      ({!Extract}) and re-synthesized exactly under its own budget
      ({!Rewrite} through {!Mm_engine.Engine.probe_window}, atlas-first);
      strictly-cheaper replacements are spliced in.

    Acceptance criterion (1D): a splice is committed only when the rebuilt
    circuit passes [Circuit.realizes] against the full specification — a
    rewrite bug becomes a rejected splice, never a wrong answer — and the
    step count is strictly lower by construction. The loop alternates
    cleanup and window sweeps to a fixed point or a pass cap; steps are
    monotonically non-increasing throughout.

    There is no crossbar pass: the crossbar schedule is a function of the
    block cover, and the mapper's area-flow cover already prices the merged
    cuts a cover-level pass would try ({!optimize_xbar} is an identity kept
    for an external caller). *)

module Circuit = Mm_core.Circuit
module Tt = Mm_boolfun.Truth_table
module Spec = Mm_boolfun.Spec
module Engine = Mm_engine.Engine
module Xstitch = Mm_map.Xstitch

(** {2 Cleanup sweeps (1D)} *)

(** Redirect R-ops computing an already-available function (by complete
    simulation over all [2^arity] rows) onto the earlier signal; returns
    the count redirected. Skipped above arity 14 (table size). *)
val sweep_merge : Circuit.t -> Circuit.t * int

(** Drop R-ops unreachable from the outputs; legs are kept (removing a leg
    cannot reduce the step metric). Returns the count removed. *)
val dce : Circuit.t -> Circuit.t * int

(** Delete hold V-ops (TE = BE — Table I: the leg state is unchanged) and
    left-pack every leg. The stitcher serializes independent blocks in
    time, padding all other legs with holds over each block's span; the
    line array steps all legs in lockstep, so those holds only inflate
    [steps_per_leg]. Mid-leg taps are remapped onto the surviving prefix
    (a tap before any surviving op reads the initial state, constant 0).
    Returns the V-steps saved ([steps_per_leg] before − after); the
    identity when nothing shrinks. *)
val compact_legs : Circuit.t -> Circuit.t * int

(** {2 1D driver} *)

type stats = {
  passes : int;  (** sweeps actually run (≤ the cap) *)
  fixed_point : bool;  (** converged before the pass cap *)
  windows_attempted : int;
  windows_accepted : int;
  trivial_hits : int;  (** accepted without any probe *)
  atlas_hits : int;  (** accepted from the atlas tier, zero solver calls *)
  solver_hits : int;  (** accepted via the SAT pipeline / cache *)
  probe_calls : int;  (** engine probes issued (memoized misses) *)
  rejected : int;  (** candidates failing full-spec re-verification *)
  sweep_merged : int;
  dce_removed : int;
  v_steps_saved : int;  (** [steps_per_leg] reclaimed by {!compact_legs} *)
  steps_before : int;
  steps_after : int;
  wall_s : float;
}

type t = {
  circuit : Circuit.t;  (** re-verified against the spec on all rows *)
  stats : stats;
}

(** [optimize cfg spec circuit] — [circuit] must realize [spec] (raises
    [Invalid_argument] otherwise). [max_passes] (default 4) caps the
    cleanup/window-sweep alternations; windows are {!Window.enumerate}'s.
    The probe budget derives from [cfg] with [max_rops] clamped per
    window. *)
val optimize : ?max_passes:int -> Engine.config -> Spec.t -> Circuit.t -> t

(** {2 Crossbar shim} *)

type xstats = { merges_attempted : int; merges_accepted : int }
type xresult = { result : Xstitch.result; xstats : xstats }

(** [optimize_xbar cfg spec r] returns [r] unchanged, with both counters 0.
    It exists only because the frozen repository benchmark
    ([perfbench/xbar_warm.ml]) still calls it and reads these fields; the
    cover-merge search it used to run never found a merge with a positive
    gain. The next benchmark change deletes this shim together with that
    call. *)
val optimize_xbar :
  ?rows:int ->
  ?ports:int ->
  Engine.config ->
  Spec.t ->
  Xstitch.result ->
  xresult
