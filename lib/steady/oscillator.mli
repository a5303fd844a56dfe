(** Periodic steady state of {e unforced autonomous} oscillators:
    unknown waveform {e and} unknown frequency, pinned by a phase
    condition — exactly the [t2]-independent special case of the
    WaMPDE, and the initial condition generator for its envelope
    solver.

    Solves [omega (D Q)_j + f(x_j) = 0] (period-1 warped grid,
    [omega] in cycles per time unit) together with the phase condition
    [d x_0 / d t1 (0) = 0] (variable 0 peaks at [t1 = 0]). *)

open Linalg

type orbit = {
  omega : float;  (** oscillation frequency, cycles per time unit *)
  grid : Vec.t array;  (** one period sampled on the odd uniform grid *)
}

exception Nonphysical of string
(** The solve converged to (or the warm-up produced) something that is
    not a usable oscillation — non-positive frequency, or too few
    cycles in the warm-up transient.  A printer is registered. *)

(** [period orbit] is [1 / omega]. *)
val period : orbit -> float

(** The n1-independent part of {!find}: a warm-up transient and the
    period estimated from it, reduced to the samples {!polish} reads.
    One [settled] serves every resolution [n1]. *)
type settled

(** [settle dae ~period_hint x0] integrates the trapezoidal transient
    from [x0] over 34 hinted periods at 100 steps each, estimates the
    period from upward zero crossings of variable 0 (after removing
    its mean) and keeps the samples of the last period.  Raises
    {!Nonphysical} when the transient shows too few oscillation
    cycles. *)
val settle : Dae.t -> period_hint:float -> Vec.t -> settled

(** [polish dae ~n1 settled] resamples the settled period onto the odd
    [n1] grid, rotates it so variable 0 peaks at [t1 = 0], and solves
    the collocation + phase system from that guess by the
    {!Nonlin.Polyalg} cascade.  Raises [Nonlin.Polyalg.Solve_failed]
    when the whole cascade fails and {!Nonphysical} when the converged
    frequency is non-positive. *)
val polish : Dae.t -> n1:int -> settled -> orbit

(** [find dae ~n1 ~period_hint x0] is [polish dae ~n1 (settle dae
    ~period_hint x0)] under one [oscillator.find] span. *)
val find : Dae.t -> n1:int -> period_hint:float -> Vec.t -> orbit

(** [amplitude orbit ~component] is half the peak-to-peak excursion of
    the component over one period. *)
val amplitude : orbit -> component:int -> float
