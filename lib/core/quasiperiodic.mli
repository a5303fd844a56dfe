(** WaMPDE with periodic boundary conditions in [t2] (paper Section
    4.1): directly computes quasiperiodic (FM and AM) steady states of
    forced oscillators without following any transient.

    With [b(t2)] of period [p2], both the bivariate waveform
    ([(1, p2)]-periodic) and the local frequency ([p2]-periodic) are
    solved for on an [n1 x n2] grid: collocation along both axes with
    trigonometric differentiation, one phase-condition row per [t2]
    slice (eq. (20) holding at every [t2]), and Newton on the coupled
    system of [n2 (n1 n + 1)] unknowns.

    The system is the periodic-in-[t2] wrapper of {!Dae.Semidisc} on
    the envelope's [t1] discretization.  The linear systems are solved
    densely (LU) or matrix-free with GMRES and a bordered DFT-block
    preconditioner that holds the slices' [t2] coupling — the paper's
    pointer to iterative methods
    [Saa96] for large systems.  A solution's waveform (eq. (17)) is
    {!Sigproc.Warp.make} of its fields, with [~p2]. *)

open Linalg

type solution = {
  p2 : float;  (** slow period *)
  t2 : Vec.t;  (** slice times [m p2 / n2] *)
  omega : Vec.t;  (** local frequency per slice *)
  slices : Vec.t array array;  (** [slices.(m).(j)]: state at [(t1_j, t2_m)] *)
}

exception Solve_failure of Nonlin.Newton.report
(** {!solve}'s cascade failed; the closest attempt's report says why
    ([Non_finite_residual], [Iteration_limit], [Line_search_failed], or
    [Singular_jacobian]).  A printer is registered. *)

(** [solve_semidisc sd ~p2 ~n2 ~options ~solver ~label ~fn ~omega
    slices] is {!Dae.Periodic.solve} with the trigonometric [t2]
    differentiation matrix on [n2] slices, its answer as a {!solution};
    with telemetry on it notes the worst [t1] resolution over the slices
    to the health monitor.  The MPDE's periodic solves call it too.
    [Error] carries the closest attempt's report. *)
val solve_semidisc :
  ?cascade:Nonlin.Polyalg.strategy list ->
  Dae.Semidisc.t ->
  p2:float ->
  n2:int ->
  options:Nonlin.Newton.options ->
  solver:Structured.strategy ->
  label:string ->
  fn:string ->
  omega:Vec.t ->
  Vec.t array array ->
  (solution, Nonlin.Newton.report) result

(** [solve dae ~options ~p2 ~n2 ~guess ()] solves the two-periodic
    WaMPDE with {!solve_semidisc}.  [options] supplies [n1], the phase
    condition, the differentiation scheme and the linear-solver path
    [options.solver] (its [theta] is ignored — there is no
    time-stepping here).  [guess] provides initial slices and
    frequencies, most naturally a settled {!Envelope} run sampled over
    one slow period (see {!from_orbit}).  Newton is the
    {!Nonlin.Polyalg} cascade: damped Newton (damping floor [1e-3]),
    then trust region.  Raises {!Solve_failure} when both fail,
    including on a non-finite residual, and
    [Steady.Oscillator.Nonphysical] when a converged slice fails
    {!Envelope.check_oscillating} against the largest swing of the
    guess's slices: omega <= 0, or a quenched oscillation (the first
    such slice is named, with its t2). *)
val solve :
  Dae.t ->
  ?max_iterations:int ->
  ?tol:float ->
  options:Envelope.options ->
  p2:float ->
  n2:int ->
  guess:solution ->
  unit ->
  solution

(** [from_orbit dae ~options ~p2 ~n2 ~init ()] is the quasiperiodic
    steady state started from the unforced orbit [init] (from
    {!Steady.Oscillator.find} at [options.n1]): a fixed-step
    {!Envelope.simulate} from [init] over {!warmup_horizon}, sampled at
    the slice times of its last slow period, is {!solve}'s guess.

    The warm-up's step is [h2 = p2 / (k n2)], so every slice time is a
    step, with [k] the smallest integer giving at least 20 steps per
    period ([k = 3], [h2 = 40/21] at [p2 = 40], [n2 = 7]).  When the
    march raises [Steady.Oscillator.Nonphysical] or
    [Step_control.Underflow] at a step longer than one period of [init]
    ([1 / init.omega]), [k] doubles, the [quasiperiodic.refinements]
    counter is bumped and the march starts again from [init]; at a
    shorter step, which is no longer an envelope step, the march's
    exception propagates.  The step grows with [p2]: at [p2 = 120]
    (three control periods) and [n2 = 7] or [21] it is 40/7, too coarse
    for VCO-A's envelope (omega < 0 at [t2 = 57.1]), and one refinement
    to 20/7 answers.

    The periodic solve's exceptions propagate at once.  Some slice
    counts end there in {!Solve_failure}: on VCO-A (EXPERIMENTS.md)
    [(p2, n2)] = (40, 5) at every [n1] from 3 to 41, and (80, 7) and
    (120, 15) at [n1 = 15].

    The march runs on the size-based [Structured.auto] path;
    [options.solver] picks the periodic solve's, which runs at
    {!solve}'s defaults. *)
val from_orbit :
  Dae.t ->
  options:Envelope.options ->
  p2:float ->
  n2:int ->
  init:Steady.Oscillator.orbit ->
  unit ->
  solution

(** [warmup_horizon ~p2] is the slow time {!from_orbit}'s warm-up
    marches to, [3 p2]: the progress total of its run. *)
val warmup_horizon : p2:float -> float

(** [residual_norm dae ~options sol] evaluates the two-periodic WaMPDE
    residual's infinity norm (phase rows excluded). *)
val residual_norm : Dae.t -> options:Envelope.options -> solution -> float

(** [mean_frequency sol] is the [t2]-average of the local frequency
    (the paper's [omega_0] in eq. (21)). *)
val mean_frequency : solution -> float
