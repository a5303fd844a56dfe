(** The plain (unwarped) MPDE of [BWLBG96, Roy97, Roy99] for {e
    non-autonomous} systems with two widely separated time scales —
    the method the WaMPDE generalizes, kept as a baseline.

    For [d/dt q(x) + f(t, x) = 0] with fast forcing of known period
    [p1] and slow dynamics, the MPDE reads

    [dq(xhat)/dt1 + dq(xhat)/dt2 + f_slow(t2, xhat) + b_fast(t1, t2) = 0]

    and univariate solutions are recovered along the diagonal
    [x(t) = xhat(t mod p1, t)].

    Because both axes are unwarped, the MPDE cannot represent FM
    compactly (paper Section 3, Figs. 4–5); the [fig5]/[mpdefm]
    benches quantify this failure against the warped form. *)

open Linalg

type system = {
  dae : Dae.t;  (** autonomous/slow part: [f]'s time argument is [t2] *)
  p1 : float;  (** fast forcing period *)
  b_fast : t1:float -> t2:float -> Vec.t;  (** fast forcing term *)
}

type result = {
  t2 : Vec.t;
  slices : Vec.t array array;  (** [slices.(m).(j)]: state at [(t1_j, t2_m)] *)
  p1 : float;
  p2 : float option;  (** slow period of a {!quasiperiodic} result; [None] from {!simulate} *)
}

exception Solve_failure of { stage : string; report : Nonlin.Newton.report }
(** A steady-state solve ({!periodic_initial} or {!quasiperiodic})
    exhausted both globalization stages (damped Newton, then trust
    region); [report] is the closest attempt.  A printer is registered. *)

(** [simulate sys ~n1 ~t2_end ~h2 ~init] — envelope-following MPDE:
    collocation (odd [n1], spectral differentiation) along [t1],
    trapezoidal time-stepping along [t2] from the initial fast
    steady-state guess [init] (grid of [n1] states).  [solver] picks
    dense LU or matrix-free preconditioned GMRES for the collocation
    Newton systems (default [Structured.auto]).

    The march is {!Wampde.Envelope.march} on the fixed-omega, forced
    semi-discretization: chord Newton per theta step, and on a Newton
    failure the shared {!Step_control} policy halves the step,
    retries, switches the linear solver to dense LU after repeated
    stalls, and grows the step back toward [h2] once steps start
    converging again.  Its work is therefore billed like the
    envelope's: under the [envelope.outer] and [envelope.newton]
    scopes and the [envelope.*] and [step.*] counters, inside the
    [mpde.simulate] span.  Raises [Step_control.Underflow] when
    recovery drives the step below [1e-9 * h2], and
    [Invalid_argument] when [h2] or [t2_end] is not positive and
    finite, [n1] is even, or [init] is not [n1] states of [sys.dae]'s
    dimension. *)
val simulate :
  ?solver:Structured.strategy ->
  system ->
  n1:int ->
  t2_end:float ->
  h2:float ->
  init:Vec.t array ->
  result

(** [periodic_initial sys ~n1 ~guess] solves the fast-periodic steady
    state at frozen [t2 = 0] ([dq/dt2] dropped): the natural initial
    condition for {!simulate}.  It is
    {!Wampde.Quasiperiodic.solve_semidisc} at [n2 = 1] with
    [Structured.auto]; raises {!Solve_failure} when the cascade is
    exhausted, and [Invalid_argument] unless [n1] is odd and [guess] is
    [n1] states of [sys.dae]'s dimension. *)
val periodic_initial : system -> n1:int -> guess:Vec.t array -> Vec.t array

(** [quasiperiodic sys ~n1 ~n2 ~p2 ~guess] solves the biperiodic
    steady state on an [n1 x n2] grid (both odd), with slow period
    [p2]: the AM-quasiperiodic solution of Section 3.  [guess] is an
    [n2]-array of [n1]-arrays of states.  It is
    {!Wampde.Quasiperiodic.solve_semidisc} with [Structured.Dense] by
    choice: trust region factors the assembled Jacobian anyway, and at
    these sizes the Krylov path is slower.  [cascade] overrides the
    {!Nonlin.Polyalg.default_cascade} (e.g. [[Damped]] to benchmark
    plain Newton); raises {!Solve_failure} when it is exhausted, and
    [Invalid_argument] on a [guess] of any other shape. *)
val quasiperiodic :
  ?cascade:Nonlin.Polyalg.strategy list ->
  system ->
  n1:int ->
  n2:int ->
  p2:float ->
  guess:Vec.t array array ->
  result

(** [warping res] is the result's recovery: {!Sigproc.Warp.make}
    with [omega] fixed at [1 / p1], so [phi(t) = t / p1] and
    {!Sigproc.Warp.eval} reads the diagonal path
    [x(t) = xhat(t mod p1, t)]; {!Sigproc.Warp.xhat} reads the grid at
    [t1] in cycles ([t1 / p1] in time).  Between slices the grid is
    linear in [t2], and a {!quasiperiodic} result wraps [t2] modulo
    [p2], interpolating from the last slice back to slice 0. *)
val warping : result -> Sigproc.Warp.t
