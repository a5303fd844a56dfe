(** Periodic steady state of {e unforced autonomous} oscillators:
    unknown waveform {e and} unknown frequency, pinned by a phase
    condition — the initial condition generator for the WaMPDE envelope
    solver.

    The orbit has no [t2] dependence, so it is the [n2 = 1] periodic
    solve of {!Dae.Semidisc} ({!Dae.Periodic.solve}, dense LU): it
    solves [omega (D Q)_j + f(x_j) = 0] (period-1 warped grid, [omega]
    in cycles per time unit) together with the {!Dae.Phase.Derivative}
    condition [d x_0 / d t1 (0) = 0] (variable 0 peaks at [t1 = 0]). *)

open Linalg

type orbit = Floquet.orbit = {
  omega : float;  (** oscillation frequency, cycles per time unit *)
  grid : Vec.t array;  (** one period sampled on the odd uniform grid *)
}

exception Nonphysical of string
(** The solve converged to (or the warm-up produced) something that is
    not a usable oscillation — an equilibrium, a non-positive frequency,
    or too few cycles in the warm-up transient.  A printer is
    registered. *)

(** [period orbit] is [1 / omega]. *)
val period : orbit -> float

(** The n1-independent part of {!find}: a short warm-up transient and
    the period estimated from it, reduced to the samples {!polish}
    reads, and the fallback warm-up, run at most once: on first use,
    under a lock, so that two domains forcing it at once share one
    run.  One [settled] serves every resolution [n1]. *)
type settled

(** [settle dae ~period_hint x0] integrates the trapezoidal transient
    from [x0] over 8 hinted periods at 30 steps each, estimates the
    period from upward zero crossings of variable 0 (after removing
    its mean) and keeps the samples of the last period.  When that
    warm-up shows too few oscillation cycles (or a step fails), it
    runs the fallback warm-up at once: 34 hinted periods at 100 steps
    each, reduced the same way.  Raises {!Nonphysical} when the
    fallback transient shows too few oscillation cycles. *)
val settle : Dae.t -> period_hint:float -> Vec.t -> settled

(** [polish dae ~n1 settled] resamples the short warm-up's period onto
    the odd [n1] grid, rotates it so variable 0 peaks at [t1 = 0], and
    runs the [n2 = 1] periodic solve of {!Dae.Semidisc} from that guess
    (the {!Nonlin.Polyalg} cascade) to a residual of [1e-12], where the
    orbit no longer depends on the guess.

    It keeps that orbit only when it is shown stable: its largest
    non-trivial Floquet multiplier ({!Floquet.analyze}, 50 steps over
    one period) is below [1 - 1e-3].  The short warm-up cannot filter
    out an unstable cycle the way a long transient does.  Otherwise,
    that is when the multiplier is larger, the multipliers cannot be
    found ([Linalg.Poly.No_convergence], [Linalg.Lu.Singular], a
    [Transient.Step_failure] of the monodromy's transient), or the
    short attempt raised {!Nonphysical}, [Nonlin.Polyalg.Solve_failed]
    or [Transient.Step_failure], it polishes from the fallback warm-up
    instead and returns that orbit without the stability check, as
    {!polish_long} does.

    From the fallback warm-up it raises [Nonlin.Polyalg.Solve_failed]
    when the whole cascade fails, and {!Nonphysical}, naming the
    amplitude, when the solve converged to an equilibrium: the orbit's
    [t1] peak-to-peak in variable 0 is below [1e-3] times the warm-up
    window's own.  On such a point [D Q = 0], so the [omega] column of
    the Jacobian vanishes and the returned [omega] would be arbitrary.
    A genuine orbit, polished from the window it was resampled from,
    keeps that ratio near 1 (0.99 to 1.4 on VCO-A, VCO-B, van der Pol
    and the diode VCO, the unstable van der Pol cycle at [mu = -0.05]
    included), while a quenched van der Pol lands at [1e-7] or below;
    [1e-3] sits between with margin both ways.  It also raises
    {!Nonphysical} when the converged frequency is non-positive. *)
val polish : Dae.t -> n1:int -> settled -> orbit

(** [polish_long dae ~n1 settled] is {!polish}'s fallback on its own:
    the polish of the 34-period warm-up, with no stability check.  The
    oracle of the test that {!find}'s orbit does not depend on the
    warm-up. *)
val polish_long : Dae.t -> n1:int -> settled -> orbit

(** [find dae ~n1 ~period_hint x0] is [polish dae ~n1 (settle dae
    ~period_hint x0)] under one [oscillator.find] span. *)
val find : Dae.t -> n1:int -> period_hint:float -> Vec.t -> orbit

(** [amplitude orbit ~component] is half the peak-to-peak excursion of
    the component over one period. *)
val amplitude : orbit -> component:int -> float
