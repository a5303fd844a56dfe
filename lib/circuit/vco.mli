(** The paper's VCO (Section 5): an LC tank in parallel with a cubic
    negative resistor, its capacitor realised by a MEMS varactor tuned
    by a slow control voltage.

    Scaled units throughout (see DESIGN.md): time in µs, voltage in V,
    current in mA, capacitance in nF, inductance in mH, gap in µm.
    Frequencies then come out directly in MHz.  The nominal design
    oscillates at [f_nominal ~ 0.75] MHz with a ~2 V amplitude. *)

open Linalg

type params = {
  l : float;  (** tank inductance [mH] *)
  g1 : float;  (** negative-conductance strength [mS] *)
  g3 : float;  (** cubic limiting coefficient [mS/V^2] *)
  varactor : Mna.varactor_params;
}

(** [default_params ~control ()] is the nominal 0.75 MHz design with
    the given control-voltage waveform; optional arguments override
    the mechanical damping ([?damping]), actuator law
    ([?force_power]), actuator strength ([?force0]) and spring
    stiffness ([?stiffness]). *)
val default_params :
  ?damping:float ->
  ?force_power:int ->
  ?force0:float ->
  ?stiffness:float ->
  control:(float -> float) ->
  unit ->
  params

(** [vco_a ()] — the paper's first experiment (Figs. 7–9): lightly
    damped (near-vacuum) varactor, control voltage 1.5 V biased,
    modulated sinusoidally with period ~30 nominal cycles; the local
    frequency swings by a factor of ~3. *)
val vco_a : unit -> params

(** [vco_b ()] — the modified experiment (Figs. 10–12): heavily damped
    (air-filled) varactor, 1 ms control period (~1000 nominal cycles),
    smaller frequency swing with visible settling. *)
val vco_b : unit -> params

(** [build params] compiles the netlist.  State layout:
    [x = [v_tank; i_L; gap; vel]] (one non-ground node, then the
    inductor current, then the varactor's two mechanical states). *)
val build : params -> Dae.t

(** [initial_state params] is a consistent start near the limit cycle:
    tank voltage at the describing-function amplitude
    [sqrt (4 g1 / (3 g3))], zero current, gap at mechanical equilibrium
    for the initial control voltage. *)
val initial_state : params -> Vec.t

(** [nominal_frequency params] is the small-signal tank frequency
    [1 / (2 pi sqrt (l c(gap)))] in MHz at the mechanical equilibrium
    gap for the control voltage at [t = 0]. *)
val nominal_frequency : params -> float

(** Index of the tank voltage (0) and gap (2) in the compiled state
    vector. *)
val idx_voltage : int

val idx_gap : int
