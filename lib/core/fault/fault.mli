(** Deterministic, seedable fault injection for solver hardening tests.

    The harness is disarmed by default and costs a single branch per
    probe site.  Arming installs a schedule parsed from a compact spec
    string; every probe site calls {!fire} with its {!kind} and injects
    the corresponding failure when the schedule says so.

    Spec grammar (comma-separated entries):
    - [kind@N]  — fire deterministically on the [N]-th call for [kind]
      (1-based, single shot);
    - [kind%P]  — fire on each call with probability [P] (in [0,1]),
      drawn from a seeded LCG so runs are reproducible;
    - [seed=S]  — set the LCG seed (default 1);
    - [stall=S] — seconds a [Solver_stall] trip sleeps (default 0.25).

    Kind names: [linsolve], [diverge], [nan], [ckpt-trunc], [stall],
    [journal-trunc].
    Example: ["linsolve@3,nan%0.05,seed=42"]. *)

type kind =
  | Linear_solve  (** force the inner linear solve to fail *)
  | Newton_diverge  (** corrupt the Newton step so the iterate diverges *)
  | Nan_residual  (** contaminate a residual evaluation with NaN *)
  | Checkpoint_trunc  (** truncate a checkpoint payload before writing *)
  | Solver_stall
      (** wedge the solver: sleep past the serve watchdog's stall
          threshold inside a residual evaluation *)
  | Journal_trunc  (** truncate a serve job-journal record mid-write *)

(** Short stable name used in specs and metrics ([linsolve], ...). *)

val env_var : string
(** Name of the arming environment variable, ["WAMPDE_FAULTS"]. *)

(** [parse spec] validates [spec] and returns a thunk that arms it.
    [Error msg] describes the first malformed entry. *)

val arm : string -> (unit, string) result
(** [arm spec] parses and installs a schedule, resetting all call and
    injection counters.  [Error msg] describes the first malformed
    entry. *)

val arm_from_env : unit -> unit
(** Arm from [WAMPDE_FAULTS] if set and non-empty; raises
    [Invalid_argument] on a malformed value.  Intended for CLI entry
    points — libraries never read the environment on their own. *)

val disarm : unit -> unit
(** Remove the schedule.  Counters are preserved for inspection. *)

val armed : unit -> bool

val fire : kind -> bool
(** Probe site hook: count one call for [kind] and report whether the
    fault should be injected now.  Always [false] when disarmed (and
    then the call is not counted). *)

val injected : kind -> int
(** Faults injected for [kind] since the last {!arm}. *)

val maybe_stall : unit -> unit
(** Probe site hook for {!Solver_stall}: when armed and fired, sleep
    for the schedule's [stall=S] duration — emulating a wedged solver so watchdog
    cancellation paths are exercisable.  The sleep is interruptible by
    signal-driven cancellation. *)

val with_armed : string -> (unit -> 'a) -> 'a
(** [with_armed spec f] arms, runs [f], and restores the previous
    schedule (and counters) even on exception. *)
