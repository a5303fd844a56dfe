(** Single shooting for the periodic steady state of unforced
    oscillators.

    The unknowns are the initial state and the period, closed by a
    phase anchor (the time derivative of a chosen component vanishes
    at [t = 0], so the orbit starts at that component's extremum).

    The classical alternative ([AT72], [TKW95] in the paper) to the
    collocation method of {!Oscillator}; quadratically
    convergent near the orbit but each Jacobian column costs a
    transient integration. *)

open Linalg

type result = {
  x0 : Vec.t;  (** point on the periodic orbit *)
  period : float;
  iterations : int;
}

(** [autonomous dae ?steps_per_period ?phase_component ?tol ~period_guess x0]
    solves the unforced problem.  Raises [Nonlin.Polyalg.Solve_failed]
    when the globalization cascade is exhausted. *)
val autonomous :
  Dae.t ->
  ?steps_per_period:int ->
  ?phase_component:int ->
  ?tol:float ->
  period_guess:float ->
  Vec.t ->
  result

(** [flow dae ~t0 ~t1 ~steps x0] integrates the DAE (trapezoidal) and
    returns the final state — the flow map used in the shooting
    residual, exposed for tests. *)
val flow : Dae.t -> t0:float -> t1:float -> steps:int -> Vec.t -> Vec.t
