(** Floquet (orbital) stability analysis of periodic orbits.

    The paper notes that linear oscillator models are "not even
    qualitatively adequate … since nonlinearity is essential for
    orbital stability".  This module quantifies that: the monodromy
    matrix [M = d Phi_T / d x0] of the period map is formed by
    finite-differencing the flow, and its eigenvalues (Floquet
    multipliers) decide stability.  An autonomous limit cycle always
    carries the trivial multiplier 1 (along the orbit); the orbit is
    asymptotically orbitally stable when all the others lie strictly
    inside the unit circle. *)

open Linalg

type report = {
  monodromy : Mat.t;
  multipliers : Cx.Cvec.t;  (** Floquet multipliers *)
  trivial_index : int;  (** index of the multiplier closest to 1 *)
  largest_nontrivial : float;  (** modulus of the largest other multiplier *)
  stable : bool;  (** [largest_nontrivial < 1] (with a small margin) *)
}

(** [analyze dae ~period ?steps_per_period x0] computes the full
    report for a point [x0] on a periodic orbit of an {e autonomous}
    system.  The trivial multiplier should be close to 1; its
    deviation measures the discretization quality. *)
val analyze : Dae.t -> period:float -> ?steps_per_period:int -> Vec.t -> report

(** [analyze_orbit dae orbit] is {!analyze} at the first grid point of
    a collocation orbit. *)
val analyze_orbit : Dae.t -> ?steps_per_period:int -> Oscillator.orbit -> report
