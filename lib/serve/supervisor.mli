(** Supervision primitives of [wampde_cli serve]: a SIGALRM watchdog
    enforcing per-job deadlines and stall limits, deterministic
    seeded exponential backoff for retries, and a per-(circuit,
    analysis) circuit breaker.

    Instrumented as [serve.watchdog.*] and [serve.breaker.*]
    counters. *)

(** {1 Watchdog}

    A quantum runs under {!guard}, which arms a recurring interval
    timer; the (process-global, installed once) SIGALRM handler
    raises {!Deadline_exceeded} past the absolute deadline and
    {!Stalled} when no liveness signal arrived within [stall_s].
    Liveness is fed by {!touch} and, automatically, by each timer tick
    that finds the [dae.evals] counter moved (telemetry must be
    enabled, as it is under [serve]): every solver evaluates its
    circuit through [Dae.t.eval_into], so a long Newton or periodic
    solve proves progress even when no macro step completes inside
    the stall window.

    OCaml delivers signal-handler exceptions at safe points, so the
    raise surfaces inside the guarded solver call and unwinds through
    its normal exception path — including out of the
    {!Fault.maybe_stall} sleep, exactly like a wedged solver being
    cancelled. *)

exception Deadline_exceeded

exception Stalled of { idle_s : float }  (** quiet for [idle_s] seconds *)

(** Record a liveness heartbeat on the active watch (no-op outside
    {!guard}). *)
val touch : unit -> unit

(** [guard ?deadline_s ?stall_s f] runs [f] under the watchdog.  With
    neither bound, [f] runs unwatched (no timer, no handler).  The
    timer and watch are always cleared on exit, exceptional or not. *)
val guard : ?deadline_s:float -> ?stall_s:float -> (unit -> 'a) -> 'a

(** {1 Retry backoff} *)

(** [backoff_s ~base ~attempt ~seed] is the delay before retry
    [attempt] (1-based): [base * 2^(attempt-1)] stretched by a
    deterministic jitter in [1, 1.5) derived from [(seed, attempt)] —
    reproducible per job, decorrelated across jobs.  The exponential
    factor saturates (at [2^16]) so extreme attempt counts cannot
    overflow. *)
val backoff_s : base:float -> attempt:int -> seed:int -> float

(** {1 Circuit breaker}

    Classic three-state breaker per string key (the scheduler keys by
    ["circuit/analysis"]): [threshold] consecutive permanent failures
    trip the key open; for [cooldown_s] every {!decide} is
    [Fast_fail]; the first decision after the cooldown is a single
    [Probe] (half-open) whose outcome closes the breaker or snaps it
    straight back open. *)
module Breaker : sig
  type t

  val create : threshold:int -> cooldown_s:float -> t

  type decision =
    | Proceed
    | Probe  (** half-open: this caller carries the probe *)
    | Fast_fail of { retry_after_s : float }

  val decide : t -> key:string -> now:float -> decision

  (** Report the probe/call outcome for [key]. *)
  val success : t -> key:string -> unit

  val failure : t -> key:string -> now:float -> unit

  (** Abandon a half-open probe without a verdict (the probe job was
      cancelled or preempted): the key returns to open and re-probes
      after another cooldown.  No-op in other phases. *)
  val release : t -> key:string -> now:float -> unit

  (** Non-closed-and-clean keys with their phase name ("closed",
      "open", "half-open"), sorted — for the [stats] reply. *)
  val states : t -> (string * string) list
end
