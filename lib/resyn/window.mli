(** Legal resynthesis windows over a stitched R-op schedule.

    A window is a {e fanout-free} set of R-ops ending at a single
    {e live-out}: every member other than the live-out is consumed only by
    other members, so the set computes exactly one Boolean function of its
    {e live-ins} — the distinct signals it reads that are defined outside
    it (primary-input literals, with both polarities of [x_i] collapsing
    onto one live-in; V-leg taps; earlier R-ops). {!Extract} tabulates
    that function and {!Rewrite} re-synthesizes it under the window's own
    budget.

    Two families are enumerated:
    + {b contiguous spans} [\[lo, hi)] with a single live-out — the
      sliding window over the schedule. Every such span is fanout-free
      with live-out [hi - 1] (a trailing op consumed nowhere would be dead
      code, which the cleanup sweeps remove first);
    + {b maximum fanout-free cones} of each R-op — the members need not be
      adjacent in the schedule, which is what lets an output inverter
      NOR(x,x) fold into the (possibly distant) block producing [x] as a
      complemented re-synthesis.

    Since R-ops only reference strictly earlier R-ops, every member is an
    ancestor of the live-out and every live-in is defined before it, so a
    replacement segment spliced at the live-out's position sees all of
    them. Constants are not live-ins (they cannot vary). *)

module Circuit = Mm_core.Circuit

type t = {
  members : int array;  (** R-op indices, ascending; the last is the live-out *)
  live_in : Circuit.source array;
      (** distinct external signals, first-use order; negated-literal reads
          are canonicalized onto the positive literal *)
  live_out : int;  (** [= members.(length - 1)] *)
}

val width : t -> int
(** Number of member R-ops (the window's R-op budget is [width - 1]). *)

val lo : t -> int
(** Smallest member index — where the replacement segment begins. *)

(** Canonical live-in key of a source: [Neg i] reads collapse onto [Pos i]
    (one underlying signal), everything else is itself. *)
val source_key : Circuit.source -> Circuit.source

(** All legal windows of 2 to 6 members with 1 to 6 live-ins: every
    single-live-out contiguous span plus every capped fanout-free cone not
    already enumerated as a span. Ordered by live-out ascending, then width
    ascending. *)
val enumerate : Circuit.t -> t list
