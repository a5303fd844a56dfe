(** Floquet (orbital) stability analysis of periodic orbits.

    The paper notes that linear oscillator models are "not even
    qualitatively adequate … since nonlinearity is essential for
    orbital stability".  This module quantifies that: the monodromy
    matrix [M = d Phi_T / d x0] of the period map is the derivative of
    the trapezoidal transient over one period, the product of its
    steps' tangents, and its eigenvalues (Floquet multipliers) decide
    stability.  An autonomous limit cycle always carries the trivial
    multiplier 1 (along the orbit); the orbit is asymptotically
    orbitally stable when all the others lie strictly inside the unit
    circle.  {!Oscillator.polish} checks its orbit with {!analyze}.

    The trapezoidal step maps an algebraic constraint's error [e] to
    [-e] (its stability function is [-1] at infinity), so a DAE with
    algebraic rows, such as the diode VCO's voltage source, carries a
    multiplier of modulus 1 from each; such an orbit does not read as
    stable here. *)

open Linalg

(** A periodic orbit on the odd uniform [t1] grid, as
    {!Oscillator.find} returns it (the type is re-exported there). *)
type orbit = {
  omega : float;  (** oscillation frequency, cycles per time unit *)
  grid : Vec.t array;  (** one period sampled on the odd uniform grid *)
}

type report = {
  monodromy : Mat.t;
  multipliers : Cx.Cvec.t;  (** Floquet multipliers *)
  trivial_index : int;  (** index of the multiplier closest to 1 *)
  largest_nontrivial : float;  (** modulus of the largest other multiplier *)
  stable : bool;  (** [largest_nontrivial < 1] (with a small margin) *)
}

(** [analyze dae ~period ?steps_per_period x0] computes the full
    report for a point [x0] on a periodic orbit of an {e autonomous}
    system: one trapezoidal transient of [steps_per_period] steps
    (default 400) over [period], then one circuit pass, one [n x n]
    product and one LU factorization per step for the tangent.  The
    trivial multiplier should be close to 1; its deviation measures
    the discretization quality.  Raises [Transient.Step_failure] when
    the transient fails, [Lu.Singular] on a singular step matrix and
    {!Linalg.Poly.No_convergence} when the eigenvalues cannot be
    found. *)
val analyze : Dae.t -> period:float -> ?steps_per_period:int -> Vec.t -> report

(** [analyze_orbit dae orbit] is {!analyze} over the orbit's period
    from its first grid point. *)
val analyze_orbit : Dae.t -> ?steps_per_period:int -> orbit -> report
