(** Transient (time-domain initial-value) simulation of DAEs — the
    paper's baseline, against which the WaMPDE's speed and phase
    accuracy are compared (Figs. 9 and 12).

    The one implicit step solves, per step of size [h],

    [(q(x1) - q(x0)) / h + theta f(t1, x1) + (1 - theta) f(t0, x0) = 0]

    with [theta = 1] (backward Euler) or [theta = 1/2] (trapezoidal,
    the circuit-simulation workhorse). *)

open Linalg

(** The weight of the one theta step: [theta = 1] or [theta = 1/2]. *)
type method_ = Backward_euler | Trapezoidal

type trajectory = {
  times : float array;
  states : Vec.t array;  (** [states.(i)] is the state at [times.(i)] *)
}

(** Machine-inspectable record of a failed implicit step: the full
    Newton report plus where in time the step was attempted.  Feeds
    the [Step_reject] telemetry event. *)
type step_failure = {
  t : float;  (** step start time *)
  h : float;  (** attempted step size *)
  residual_norm : float;
  iterations : int;
  reason : Nonlin.Newton.failure_reason option;
}

exception Step_failure of step_failure

(** [theta_step dae ~theta ~t ~h x] advances one implicit theta step
    from state [x] at time [t].  Raises {!Step_failure} (carrying the
    full Newton report) if Newton fails. *)
val theta_step : Dae.t -> theta:float -> t:float -> h:float -> Vec.t -> Vec.t

(** [integrate dae ~method_ ~t0 ~t1 ~h x0] integrates with fixed step
    [h] (the final step is shortened to land exactly on [t1]) and
    returns the full trajectory including the initial point.

    It builds one Newton workspace and one set of residual, Jacobian
    and linear-solve closures per call; each step writes its end time,
    size and weight into that workspace.  A step
    starts from the q and f of the previous Newton solve's last
    residual pass, which is at the iterate it accepted, instead of
    evaluating them again; after a trust-region rescue, whose passes
    are elsewhere, the next step evaluates them afresh.  The states
    are bitwise those of chained {!theta_step} calls.  A trapezoidal
    step taking two Newton iterations makes five circuit passes.  The
    step times are computed first, with the loop's own arithmetic, so
    the trajectory is stored in arrays of that size. *)
val integrate : Dae.t -> method_:method_ -> t0:float -> t1:float -> h:float -> Vec.t -> trajectory

(** [component traj i] extracts the time series of state variable [i]. *)
val component : trajectory -> int -> Vec.t

(** [interpolate traj i t] linearly interpolates component [i] at time
    [t] (clamped to the trajectory's time span). *)
val interpolate : trajectory -> int -> float -> float

(** [final traj] is the last state.  Raises [Invalid_argument] on an
    empty trajectory. *)
val final : trajectory -> Vec.t

(** [steps traj] is the number of steps taken (points minus one). *)
val steps : trajectory -> int
