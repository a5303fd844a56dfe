(** Session loop of [wampde_cli serve]: NDJSON requests in, NDJSON
    responses out, jobs time-sliced on the {!Scheduler} between
    reads.

    The loop alternates draining immediately-available input
    (non-blocking reads) with running one scheduling slice; it blocks
    for input only when the queue is idle.  On startup the
    spool's {!Journal} is replayed: jobs orphaned by a crashed daemon
    are re-enqueued (one [recovered] record each) and resume from
    their surviving checkpoints bit-exactly.  With a positive
    [stall_timeout_s] the {!Supervisor} watchdog fails a job with a
    typed ["stalled"] error when its quantum shows no progress — no
    moved [dae.evals] counter and no accepted macro step — for that
    long.

    Shutdown paths: end of input and
    [{"type":"shutdown","drain":true}] drain the queue;
    [drain:false] aborts still-queued jobs with typed ["aborted"]
    errors; a [stop_requested] poll returning [true] (the CLI wires
    SIGTERM to it) parks queued jobs — journal [Preempted],
    checkpoints kept — so a restarted daemon on the same spool picks
    them up.  Either way every accepted job has produced exactly one
    terminal record when [run] returns, followed by a final [metrics]
    record and a [bye]. *)

(** [read ~block] returns the next complete input line (without its
    newline), [`Eof] at end of input, or [`Nothing] when no line is
    available yet — because [block] is [false], or because a signal
    interrupted the blocking read (so the loop can notice a
    termination request). *)
type reader = block:bool -> [ `Line of string | `Eof | `Nothing ]

type config = {
  quantum : int;  (** accepted envelope macro steps per slice *)
  spool : string;  (** checkpoint + journal directory (created if missing) *)
  stall_timeout_s : float;  (** stall watchdog; [<= 0.] disables *)
  stop_requested : unit -> bool;  (** polled each loop turn; [true] = graceful park *)
}

(** [quantum] defaults to 8, [spool] to "wampde-spool",
    [stall_timeout_s] to 0 (off), [stop_requested] to never. *)
val default_config :
  ?quantum:int ->
  ?spool:string ->
  ?stall_timeout_s:float ->
  ?stop_requested:(unit -> bool) ->
  unit ->
  config

(** [run config ~read ~write ~log] serves until shutdown or end of
    input and returns the process exit code (0 — protocol and job
    failures are responses, not daemon failures).  [write] receives
    every response line; [log] receives human-readable lifecycle
    lines.  Enables telemetry. *)
val run : config -> read:reader -> write:(string -> unit) -> log:(string -> unit) -> int

(** Non-blocking line reader over a file descriptor ([select] +
    internal buffer), for wiring [run] to [Unix.stdin].  A signal
    arriving during a blocking read yields [`Nothing] instead of
    retrying, so the server loop can poll [stop_requested]. *)
val fd_reader : Unix.file_descr -> reader
