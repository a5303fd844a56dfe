(** Error-controlled slow-axis step-size policy.

    The slow-time marches advance [t2] with a step [h] that has to
    balance local truncation error against Newton robustness: the
    WaMPDE envelope ([Wampde.Envelope], error-controlled through
    [simulate_controlled], failure recovery only through [march], which
    the MPDE's initial-value march also runs) and the harmonic-balance
    envelope ([Wampde.Hb_envelope], failure recovery only).  This
    module centralizes that policy: a weighted rtol/atol error norm, a
    PI (proportional-integral) step-size controller with a 0.9 safety
    factor, growth clamped at 2x and shrink at 0.1x per decision, and a
    failure-recovery path that halves the step on Newton stalls and
    signals when the caller should escalate from the Krylov linear
    solver to dense LU.

    Telemetry: accepted, rejected and retried steps bump the
    [step.accepted] / [step.rejected] / [step.retried] counters, the
    current step size is mirrored in the [controller.h2] gauge, and
    accept/reject/retry decisions emit {!Wampde_obs.Events} when a
    subscriber is installed.

    The controller state is a small, flat record so checkpoint files
    can serialize it exactly (see {!snapshot}); restoring a snapshot
    reproduces the controller's future decisions bit-for-bit. *)

open Linalg

type options = {
  rtol : float;  (** relative tolerance (per component) *)
  atol : float;  (** absolute tolerance floor *)
  h_min : float;  (** below this, rejection raises {!Underflow} *)
  h_max : float;  (** accepted steps never grow beyond this *)
}

val default_options : ?rtol:float -> ?atol:float -> ?h_min:float -> ?h_max:float -> unit -> options

(** Raised when error control or failure recovery would push the step
    below [h_min] (the problem is stiffer than the tolerances allow), or
    when solver failures dominate the run (see {!failure_retry}). *)
exception Underflow of { t : float; h : float }

(** Mutable controller state for one integration run. *)
type t

(** [create ~order options ~h_init] starts a controller at step
    [clamp h_init [h_min, h_max]].  [order] (default 2) is the order of
    the underlying method (local error ~ h^(order+1)); {!decide}'s PI
    exponents depend on it. *)
val create : ?order:int -> options -> h_init:float -> t

val options : t -> options

(** [propose ctrl ~remaining] is the step to attempt next: the
    current step-size proposal, capped at [remaining]. *)
val propose : t -> remaining:float -> float

(** {1 Error measurement} *)

(** [error_norm opts ~y ~err] is the weighted RMS norm
    [sqrt (1/n sum_i (err_i / (atol + rtol |y_i|))^2)]; values [<= 1]
    mean the step passes the tolerance. *)
val error_norm : options -> y:Vec.t -> err:Vec.t -> float

(** [richardson_denom ~order] is [2^order - 1], the step-doubling
    denominator: for a method of the given order, the local error of
    the two-half-steps solution is [(fine - full) / richardson_denom]. *)
val richardson_denom : order:int -> float

(** {1 Decisions} *)

type decision =
  | Accept of float  (** step accepted; the payload is the next [h] *)
  | Reject of float  (** error too large; retry with the payload [h] *)

(** [decide ctrl ~t ~h_used ~err] applies the PI controller to the
    scaled error [err] of a completed step of size [h_used] ending at
    slow time [t].  Raises {!Underflow} if a rejection would shrink
    below [h_min].  Updates the controller's internal memory, the
    [step.*] counters and the [controller.h2] gauge, and emits
    [Step_accept] / [Step_reject] events. *)
val decide : t -> t:float -> h_used:float -> err:float -> decision

(** [record_accept ctrl ~t ~h_used] books an accepted step for callers
    that march at a fixed target step and only use the controller for
    failure recovery: resets the failure streak and lets [h] grow back
    toward [h_max], doubling it per accepted step. *)
val record_accept : t -> t:float -> h_used:float -> unit

(** [failure_retry ctrl ~t ~h_used ~reason] books a solver failure
    (Newton stall, singular factorization) on a step of size [h_used]:
    halves the step, bumps [step.retried], emits a [Step_retry] event
    and returns the new step.  Raises {!Underflow} when the halved step
    falls below [h_min], the failure streak exceeds 8, or
    the run crawls: at least 256 failures booked, more than 5 % of all
    accept, reject and retry decisions. *)
val failure_retry : t -> t:float -> h_used:float -> reason:string -> float

(** True once [>= 2] consecutive solver failures have been recorded:
    the caller should switch its linear solver from Krylov to dense LU
    before retrying (the preconditioner, not the step size, is the
    likely culprit). *)
val should_escalate : t -> bool

(** {1 Checkpointing} *)

(** Complete controller state; restoring it resumes the run with
    bit-identical future decisions. *)
type snapshot = {
  s_h : float;
  s_err_prev : float;
  s_accepted : int;
  s_rejected : int;
  s_retried : int;
  s_failures : int;  (** consecutive-failure streak *)
}

val snapshot : t -> snapshot
val restore : t -> snapshot -> unit

(** Flat encoding for checkpoint files (6 floats, stable layout). *)
val snapshot_to_floats : snapshot -> float array

(** Inverse of {!snapshot_to_floats}; raises [Invalid_argument] on a
    wrong-sized array. *)
val snapshot_of_floats : float array -> snapshot
