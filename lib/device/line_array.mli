(** 1D memristive line array.

    [n] devices sit side by side; each has its own top electrode (TE) and
    all share one bottom electrode (BE) rail during V-op cycles — the
    topology of the paper's experimental demonstration (10 BiFeO₃ cells).
    Stateful MAGIC NOR steps connect three devices through the shared rail
    and exploit the voltage-divider effect.

    All electrical activity is expressed through {!Device.apply}-level pulses
    so that variation, endurance and faults influence logic outcomes. *)

type t

(** Per-cell observation of one cycle, consumed by {!Waveform}. *)
type cell_obs = {
  v_te : float;
  v_be : float;
  resistance : float;  (** after the cycle *)
  current : float;  (** |I| at the applied bias through the final resistance *)
}

(** [create ~rng ~n ()] builds [n] devices.
    @param params device parameters (default {!Device.default_params})
    @param v0 MAGIC drive voltage (default 9.0 V, i.e. divider midpoint
           comfortably above the 4 V RESET threshold) *)
val create :
  rng:Rng.t -> n:int -> ?params:Device.params -> ?v0:float -> unit -> t

val size : t -> int
val device : t -> int -> Device.t

(** Logical states of all cells. *)
val states : t -> bool array

(** [set_states t l] forces states (the initialization phase, which the
    paper excludes from measurement). *)
val set_states : t -> (int * bool) list -> unit

(** One cycle of the array.
    - [Vop {te; be}]: one parallel V-op cycle. Cell [i] receives a TE pulse
      according to [te i] ([None] = dummy cycle, TE mirrors BE so the cell
      holds), and every cell sees the shared BE pulse [be].
    - [Nor {in1; in2; out}]: one stateful MAGIC NOR. [out] (expected preset
      to LRS) receives the divider voltage in RESET polarity; after the
      output settles, the residual divider stress is applied to the inputs
      — reproducing both correct MAGIC behaviour and its input-disturb
      failure mode under variation. [in1 = in2] degenerates to the 2-device
      MAGIC NOT; the output cell must be distinct from both inputs
      (otherwise [Invalid_argument "Line_array.magic_nor"]).
    - [Nimp {in1; in2; out}]: one stateful negated implication (the
      Ta₂O₅/IMPLY-family R-op). [out] (expected preset to HRS) is
      conditionally SET through the divider when [in1] is LRS and [in2] is
      HRS. Residual stress lands on the inputs in SET polarity, giving the
      analogous disturb failure mode under variation.
    - [Read i]: a readout cycle of cell [i] (other cells idle); it changes
      no state. *)
type cycle =
  | Vop of { te : int -> bool option; be : bool }
  | Nor of { in1 : int; in2 : int; out : int }
  | Nimp of { in1 : int; in2 : int; out : int }
  | Read of int

(** [apply t cycle] applies the cycle's pulses and observes nothing: the
    path of every simulation whose only result is the final cell states. *)
val apply : t -> cycle -> unit

(** [apply_observed t cycle] applies exactly the pulses of [apply t cycle]
    and returns every cell's observation of that cycle, for {!Waveform}. *)
val apply_observed : t -> cycle -> cell_obs array

(** [read t i] reads cell [i]: (logical value, |I| at v_read). *)
val read : t -> int -> bool * float

(** Total switching events across all cells (endurance accounting). *)
val total_switches : t -> int
