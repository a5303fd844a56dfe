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
    densely (LU) or matrix-free with GMRES and a per-slice bordered
    DFT-block preconditioner — the paper's pointer to iterative methods
    [Saa96] for large systems. *)

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
    one slow period (see {!guess_from_envelope}).  Newton is the
    {!Nonlin.Polyalg} cascade: damped Newton (damping floor [1e-3]),
    then trust region.  Raises {!Solve_failure} when both fail,
    including on a non-finite residual, and
    [Steady.Oscillator.Nonphysical], naming t2 and omega, when the
    converged solution has omega <= 0 in some slice (the first such
    slice is named). *)
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

(** [guess_from_envelope result ~p2 ~n2 ~t_from] samples a (settled)
    envelope run on the [n2] slice times [t_from + m p2 / n2],
    producing a starting guess. *)
val guess_from_envelope : Envelope.result -> p2:float -> n2:int -> t_from:float -> solution

(** [residual_norm dae ~options sol] evaluates the two-periodic WaMPDE
    residual's infinity norm (phase rows excluded). *)
val residual_norm : Dae.t -> options:Envelope.options -> solution -> float

(** [eval_waveform sol ~component ~t_max t] recovers the univariate
    solution from the quasiperiodic form: [phi] is integrated from the
    periodic [omega] over [\[0, t_max\]], sampled 64 times per slow
    period [p2], so [t_max] must cover [t]. *)
val eval_waveform : solution -> component:int -> t_max:float -> float -> float

(** [mean_frequency sol] is the [t2]-average of the local frequency
    (the paper's [omega_0] in eq. (21)). *)
val mean_frequency : solution -> float
