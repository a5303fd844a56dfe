(** A junction-varactor (diode-tuned) VCO: the classic electrical
    alternative to the paper's MEMS device.

    LC tank with a cubic negative conductance, where the tank capacitor
    is a reverse-biased junction capacitance [c0 / (1 + v_r / vj)^m]
    returned to a slow control-voltage source: raising the control
    voltage deepens the reverse bias, lowers the capacitance and raises
    the oscillation frequency.  Unlike the MEMS varactor there is no
    mechanical state — the tuning law is instantaneous — so the local
    frequency should track the small-signal law {!tuning_frequency}
    quasi-statically, which the tests verify.

    Scaled units as for {!Vco} (µs, V, mA, nF, mH). *)

open Linalg

type params = {
  l : float;  (** tank inductance [mH] *)
  g1 : float;  (** negative-conductance strength [mS] *)
  g3 : float;  (** cubic limiting [mS/V^2] *)
  c0 : float;  (** zero-bias junction capacitance [nF] *)
  vj : float;  (** junction potential [V] *)
  m : float;  (** grading coefficient *)
  control : float -> float;  (** control (reverse-bias) voltage, V *)
}

(** [default_params ~control ()] — ~1 MHz at 3 V control. *)
val default_params : control:(float -> float) -> unit -> params

(** [build params] compiles the netlist.  State layout:
    [x = [v_tank; v_ctrl; i_L; i_Vc]].  Note the control source makes
    [dq/dx] singular (an algebraic constraint), so
    {!Dae.consistent_derivative} and {!Steady.Shooting.autonomous}
    fail on it; use the implicit theta step of [Transient]. *)
val build : params -> Dae.t

(** [initial_state params ~at] — tank at the amplitude estimate,
    control node at [control at]. *)
val initial_state : params -> at:float -> Vec.t

(** [tuning_frequency params ~bias] is the small-signal oscillation
    frequency [1 / (2 pi sqrt (l C(bias)))] in MHz, with the junction
    capacitance [C(bias) = c0 / (1 + bias / vj)^m] at reverse bias
    [bias] (positive = reverse). *)
val tuning_frequency : params -> bias:float -> float

