(** WaMPDE envelope-following simulation (Section 4's
    initial-condition mode — the solver behind the paper's VCO
    experiments, Figs. 7–12).

    The two-scale WaMPDE (eq. (16))

    [omega(t2) dq(xhat)/dt1 + dq(xhat)/dt2 + f(t2, xhat) = 0]

    is discretized by collocation on an odd uniform [t1] grid (period
    1; spectral or 4th-order finite-difference differentiation) and
    advanced in [t2] with the theta method.  Each step solves, by
    damped Newton, for the [n1] grid states {e and} the local
    frequency [omega], closed by a {!Dae.Phase} condition.  Newton starts
    from the polynomial extrapolation of the newest (up to three)
    accepted points to the step's end and takes at least one
    iteration.

    The [t1] axis is warped: [xhat] has period exactly 1, so [omega]
    is the instantaneous oscillation frequency in cycles per time
    unit. *)

open Linalg

type options = {
  n1 : int;  (** odd number of [t1] collocation points *)
  theta : float;  (** 1 = backward Euler, 0.5 = trapezoidal *)
  phase : Dae.Phase.t;
  differentiation : [ `Spectral | `Fd4 ];  (** [t1] derivative scheme *)
  newton : Nonlin.Newton.options;
  solver : Structured.strategy;
      (** linear-solver path for the collocation Newton systems: dense
          LU, matrix-free preconditioned GMRES, or size-based [Auto]
          (also read by {!Quasiperiodic.solve}).  GMRES's
          preconditioner is built at every Newton iterate by
          {!Dae.Semidisc.m_inv}, into buffers kept for the run. *)
  rescue : bool;
      (** when the chord iteration fails a step, cold-start the
          {!Nonlin.Polyalg} trust-region stage on the same step
          system before reporting the step as failed (default [true];
          successes bump the [envelope.rescues] counter) *)
}

(** [default_options ()] — [n1 = 25], trapezoidal, derivative phase
    condition on component 0, spectral differentiation,
    [Structured.auto] solver selection, rescue cascade on. *)
val default_options :
  ?n1:int -> ?phase:Dae.Phase.t -> ?solver:Structured.strategy -> ?rescue:bool -> unit -> options

(** [semidisc dae options] is the [t1] discretization [options]
    selects: its [n1]-point grid and differentiation scheme, with
    [omega] unknown and closed by [options.phase].  {!Quasiperiodic}
    builds its periodic system on it. *)
val semidisc : Dae.t -> options -> Dae.Semidisc.t

(** [amplitude options states] is half the [t1] peak-to-peak of the
    phase condition's component ([options.phase]) over the grid
    [states]. *)
val amplitude : options -> Vec.t array -> float

(** [check_oscillating ~fn options ~reference ~t2 ~omega states] is
    the check every accepted envelope step and every converged
    quasiperiodic slice passes.  It raises
    [Steady.Oscillator.Nonphysical], naming [fn] and [t2], when
    [omega <= 0] (a time-reversed or collapsed orbit; a NaN [omega] is
    left to the solver's own checks), or when {!amplitude} of [states]
    is below [1e-3] of [reference], the starting orbit's or guess's:
    the oscillation has quenched.  On a quenched grid [D Q] vanishes,
    so the [omega] column of the Jacobian does too and [omega] is
    undetermined; that is [Steady.Oscillator.polish]'s rule, with the
    amplitude named too. *)
val check_oscillating :
  fn:string -> options -> reference:float -> t2:float -> omega:float -> Vec.t array -> unit

(** Raised by {!simulate_controlled} when its [?preempt] callback asks
    the march to yield: the run stops on an accepted-step boundary at
    slow time [t2], {e after} writing a forced checkpoint (when a
    checkpoint path was given), so [?resume] continues bit-compatibly
    with the uninterrupted run.  This is the mechanism behind the serve
    scheduler's round-robin time slicing. *)
exception Preempted of { t2 : float }

type result = {
  t2 : Vec.t;  (** accepted slow-time points (including [t2 = 0]) *)
  omega : Vec.t;  (** local frequency at each [t2] point *)
  slices : Vec.t array array;
      (** [slices.(m).(j)] is the state at [(t1_j, t2_m)] with
          [t1_j = j / n1] *)
  newton_iterations : int;  (** total inner Newton iterations *)
  options : options;
}

(** [simulate dae ~options ~t2_end ~h2 ~init] advances the envelope
    from the unforced steady state [init] (typically from
    {!Steady.Oscillator.find} with the forcing frozen at its [t = 0]
    value) to [t2_end] with fixed slow step [h2].

    The march is {!simulate_controlled}'s, without the error estimate:
    one theta step per attempt, booked with
    {!Step_control.record_accept}.  A step whose Newton iteration
    fails is halved and retried, the step grows back toward [h2]
    once steps converge again, and repeated failures on the Krylov
    path finish the run on dense LU.  Raises [Step_control.Underflow]
    when recovery drives the step below [1e-9 h2] or solver failures
    dominate the march (see {!Step_control.failure_retry}),
    [Steady.Oscillator.Nonphysical] on the first accepted step that
    {!check_oscillating} refuses (omega <= 0, or a quenched
    oscillation), and [Invalid_argument] when [h2] or [t2_end] is not
    positive and finite. *)
val simulate :
  Dae.t -> options:options -> t2_end:float -> h2:float -> init:Steady.Oscillator.orbit -> result

(** [march sd ~options ~t2_end ~h2 ~states ~omega] is {!simulate}'s
    fixed-step march on a prebuilt [t1] semi-discretization, from the
    grid [states] at [t2 = 0].  When [sd]'s omega is unknown, [omega]
    is its initial value; when it is fixed (the plain MPDE, see
    [Mpde.simulate]), [omega] must be that value and is only
    recorded.  [options.differentiation] is not read and
    [options.phase] only names the component of the amplitude floor
    ([sd] carries both).  Raises as {!simulate} ({!check_oscillating}
    only when omega is unknown), and
    [Invalid_argument] when [states] does not hold [options.n1]
    grid points. *)
val march :
  Dae.Semidisc.t ->
  options:options ->
  t2_end:float ->
  h2:float ->
  states:Vec.t array ->
  omega:float ->
  result

(** [simulate_controlled dae ~options ~control ~t2_end ~init ()] is
    the adaptive envelope march: each slow step is taken once at [h2]
    and twice at [h2/2], the Richardson difference feeds the
    {!Step_control} PI controller (weighted rtol/atol norm over every
    grid state and [omega]), and Newton failures halve the step and —
    after repeated stalls on the Krylov path — escalate the linear
    solver to dense LU for the rest of the run.

    [control.order] is overridden from [options.theta] (2 for
    trapezoidal, 1 for backward Euler); an infinite [control.h_max] is
    replaced by [t2_end / 2].  [h2_init] defaults to [t2_end / 50].

    [checkpoint:(path, every)] writes a {!Checkpoint} file atomically
    after every [every] accepted steps; [resume:path] restarts from
    such a file (validating [n1], dimension and theta) and continues
    bit-compatibly with the uninterrupted run.  [on_accept] is called
    after each accepted step (after any checkpoint write).  [preempt],
    queried after each accepted step (and [on_accept]), asks the march
    to yield: a [true] return forces a checkpoint write (when a path
    was given) and raises {!Preempted} — never on the final step, which
    returns normally instead.

    Raises [Step_control.Underflow] when error control or failure
    recovery would push the step below [control.h_min] or solver
    failures dominate the march (see {!Step_control.failure_retry}),
    [Steady.Oscillator.Nonphysical] as {!simulate},
    [Checkpoint.Corrupt] on an unreadable or mismatched resume file,
    and [Invalid_argument] when [t2_end] or [h2_init] is not positive
    and finite. *)
val simulate_controlled :
  Dae.t ->
  options:options ->
  control:Step_control.options ->
  ?h2_init:float ->
  ?checkpoint:string * int ->
  ?resume:string ->
  ?on_accept:(t2:float -> omega:float -> unit) ->
  ?preempt:(t2:float -> bool) ->
  t2_end:float ->
  init:Steady.Oscillator.orbit ->
  unit ->
  result

(** {1 Post-processing (eq. (17))} *)

(** [warping result] is the run's {!Sigproc.Warp.t}: build it once and
    read {!Sigproc.Warp.eval} per point. *)
val warping : result -> Sigproc.Warp.t

(** [eval_waveform result ~component t] is [x(t) = xhat(phi(t) mod 1, t)]
    from a fresh {!warping}: O(steps) to build plus two slice
    transforms, so many points should share one {!warping}. *)
val eval_waveform : result -> component:int -> float -> float

(** [waveform_samples result ~component ~per_cycle] samples one
    {!warping} at [per_cycle] points per cycle: [(times, values)]. *)
val waveform_samples : result -> component:int -> per_cycle:int -> Vec.t * Vec.t

(** [amplitude_track result ~component] is, per accepted [t2] point,
    half the peak-to-peak excursion of the component along [t1]:
    the amplitude-modulation envelope (paper Figs. 8 vs 11). *)
val amplitude_track : result -> component:int -> Vec.t

(** [slice result ~index ~component] extracts the [t1] waveform of a
    component at accepted step [index]. *)
val slice : result -> index:int -> component:int -> Vec.t
