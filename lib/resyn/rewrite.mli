(** Window replacement: probe, price, splice, verify.

    {!attempt} extracts a window's function, asks the engine for an exact
    0-leg replacement under the window's R-op budget (strictly fewer ops
    than the span it replaces, counting any inverters the splice must
    materialize for negated live-ins), and rebuilds the circuit with the
    replacement segment in place of the span. Constant and single-wire
    windows splice without touching the solver at all.

    Splices reuse structure instead of duplicating it: a negated live-in is
    served by literal-polarity flipping when the live-in is a primary
    input, by an existing NOR(s,s) inverter defined before the window when
    one exists, and only otherwise by a fresh inverter (which is then
    memoized for the rest of the same splice).

    The returned circuit is structurally validated ({!Mm_core.Circuit.make})
    but {e not} yet checked against the full specification — the driver
    re-verifies every accepted splice with [Circuit.realizes] before
    committing it, so a rewrite bug surfaces as a rejected splice, never as
    a wrong circuit. *)

module Circuit = Mm_core.Circuit
module Tt = Mm_boolfun.Truth_table
module Engine = Mm_engine.Engine

(** How the replacement was obtained. *)
type origin =
  | Trivial  (** constant / wire / negated-wire window, no probe *)
  | Atlas  (** exact class served by the atlas tier, zero solver calls *)
  | Solver  (** SAT pipeline (cache hits included) *)

(** Replacement segment shape handed to {!splice}. *)
type repl =
  | R_const of bool
  | R_wire of bool  (** [live_in.(0)], negated when [true] *)
  | R_circuit of Circuit.t  (** 0-leg block over the live-ins *)

(** [splice c w live_in repl] is the rebuilt circuit and the replacement
    segment length. The prefix before [w.lo] is untouched, the span is
    replaced by the translated segment, and every suffix/output reference
    is index-shifted, with reads of the live-out redirected to the
    replacement output. *)
val splice : Circuit.t -> Window.t -> Circuit.source array -> repl -> Circuit.t * int

(** [attempt ~probe c w] is [Some (c', origin)] when a strictly-cheaper
    replacement exists, [None] otherwise. [probe] is the (memoized)
    window-shaped engine entry — see {!Mm_engine.Engine.probe_window}. *)
val attempt :
  probe:(budget_rops:int -> Tt.t -> Engine.probe option) ->
  Circuit.t ->
  Window.t ->
  (Circuit.t * origin) option
