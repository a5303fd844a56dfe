(** Cooperative round-robin job scheduler behind [wampde_cli serve].

    Single-threaded: jobs run one scheduling slice (quantum) at a
    time on the calling domain (inner kernels still fan out on the
    {!Par.Pool}).  An envelope job's quantum is [quantum] accepted
    macro steps — the march is then preempted through
    {!Wampde.Envelope.simulate_controlled}'s [?preempt] hook, which
    forces a bit-exact checkpoint into the spool directory and raises
    [Preempted]; the next slice resumes from that file, so a job's
    final result is bitwise identical to an uninterrupted run.
    Quasiperiodic jobs are atomic (one slice).

    Supervision: every lifecycle transition is journaled
    (see {!Journal}), so {!recover} on a restarted daemon re-enqueues
    the jobs a crash orphaned and resumes them from their surviving
    checkpoints.  Quanta run under the {!Supervisor} watchdog
    ([deadline_ms] per job, [stall_timeout_s] daemon-wide), which
    counts a moved [dae.evals] counter or an accepted macro step as
    progress.  The solvers are deterministic, so a failed job is not
    retried: it ends at once with its typed error and a flight dump.

    Warm state shared across jobs: each circuit's
    {!Steady.Oscillator.settled} warm-up, computed once per circuit,
    and the unforced orbit polished from it per [(circuit, n1)]
    ([cache.orbit.*] metrics count the orbits; each miss runs under
    one [oscillator.find] span).  Every
    accepted job terminates in exactly one [result] record (carrying
    a ["wampde.run-report/1"] manifest) or one typed [job-error]
    record — solver exceptions, including injected {!Fault} storms,
    are mapped to stable [kind]s, and a corrupt resume checkpoint
    restarts the job from scratch once before failing it.  Scheduler
    traffic is instrumented as [serve.*] counters and the
    [serve.queue_depth] gauge. *)

type t

(** [create ~quantum ~spool ~emit ~log ()] — [emit] receives every
    job-related response line (accepted / stream records / result /
    job-error); [log] receives human-readable lifecycle lines.  The
    spool directory must exist (the journal is opened inside it).
    A positive [stall_timeout_s] arms the stall watchdog; the default,
    and any value [<= 0], leaves it off. *)
val create :
  ?stall_timeout_s:float ->
  quantum:int ->
  spool:string ->
  emit:(string -> unit) ->
  log:(string -> unit) ->
  unit ->
  t

(** Enqueue a job and emit its [accepted] record.  [request] is the
    raw request line, journaled so a crash-recovered daemon can
    re-parse and re-run the job.  [Error _] (with code "duplicate-id"
    or "unknown-circuit") emits nothing. *)
val submit : t -> ?request:string -> Protocol.job -> (unit, Protocol.error) result

(** Replay the spool's journal and re-enqueue every orphaned
    (non-terminal) job, emitting one [recovered] record each; jobs
    whose checkpoint survived resume from it bit-exactly.  Call once,
    right after {!create}, before serving input. *)
val recover : t -> unit

(** Mark a queued (or preempted) job cancelled; it terminates with a
    ["cancelled"] job-error when next dequeued.  [Error _] (code
    "unknown-id") if the id is unknown or already terminal. *)
val cancel : t -> string -> (unit, Protocol.error) result

type slice =
  | Ran  (** a job ran one slice (or took a terminal transition) *)
  | Idle  (** queue empty *)

(** [classify exn] is the stable [(kind, message)] a failed job reports
    for [exn]: the one failure-to-kind table, which the CLI's flight
    dumps share.  Typed solver failures get their own kinds
    (["step-failure"], ["step-underflow"], ["corrupt-checkpoint"],
    ["solve-failed"], ["nonphysical"]), the watchdog's
    ["deadline-exceeded"] and ["stalled"]; any other [Failure] is
    ["solver-failure"] and anything else ["internal"]. *)
val classify : exn -> string * string

(** Run one scheduling slice on the job at the head of the queue.
    Never raises on solver failure — the job terminates with a typed
    [job-error] instead. *)
val run_slice : t -> slice

(** Run slices until the queue is empty. *)
val drain : t -> unit

(** Terminate every still-queued job with an ["aborted"] job-error
    (non-drain shutdown). *)
val abandon : t -> unit

(** Park every still-queued job for a restarted daemon (graceful
    SIGTERM drain): journal [Preempted], keep its checkpoint, emit a
    terminal ["preempted"] job-error and close its stream. *)
val preempt_all : t -> unit

(** Close the journal.  The scheduler must not be used afterwards. *)
val shutdown : t -> unit

type counts = {
  submitted : int;
  completed : int;
  failed : int;
  cancelled : int;
  preempted : int;
}

val counts : t -> counts
