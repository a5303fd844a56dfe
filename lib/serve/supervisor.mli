(** Supervision primitive of [wampde_cli serve]: a SIGALRM watchdog
    enforcing per-job deadlines and stall limits, instrumented as
    [serve.watchdog.*] counters.

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
