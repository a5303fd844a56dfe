(** NDJSON control protocol of [wampde_cli serve].

    Requests arrive one JSON object per line on the daemon's input;
    every line produces zero or more response lines on its output.
    Request shapes:

    {v
    {"type":"job","id":"e1","circuit":"vco-a","analysis":"envelope",
     "t_end":10,"rtol":1e-4,"n1":15,"h2":0.4,"solver":"auto",
     "deadline_ms":60000}
    {"type":"job","id":"q1","circuit":"vco-a","analysis":"quasiperiodic",
     "n1":15,"n2":7,"p2":40,"solver":"dense"}
    {"type":"cancel","id":"e1"}
    {"type":"metrics"}
    {"type":"stats"}
    {"type":"shutdown","drain":true}
    v}

    ["solver"] is one of ["dense"], ["krylov"] or ["auto"] for both
    analyses (["gmres"], an older name, reads as ["krylov"]); a
    request without one gets ["auto"].  A quasiperiodic job runs
    [Wampde.Quasiperiodic.from_orbit]: an envelope warm-up over 3 [p2],
    then the periodic solve; its progress stream counts toward that
    horizon.  When the warm-up's step is too coarse, the march is
    refined and restarts at [t2 = 0]: [frac] and [eta_s] then hold
    their last values until the finer march passes the slow time where
    the failed one stopped.  The progress records' [t2] stays true.
    The [t_warm] and [h2_warm] fields of [wampde.serve/1] were removed
    with the warm-up's second start; a request that names either is
    refused with a ["bad-field"] error naming it.

    Responses are [hello], [accepted], [error] (protocol-level, with a
    stable [code]), per-job {!Wampde_obs.Stream} records (tagged with a
    leading ["job"] field), [result] (with an embedded
    ["wampde.run-report/1"] manifest), [job-error] (typed solver
    failure), [metrics] and [bye].  Parsing is total: any input line
    maps to [Ok request] or [Error {code; message}] — never an
    exception — so a malformed line degrades to one [error] response
    and the daemon keeps serving. *)

type envelope_params = {
  t_end : float;  (** slow-time horizon, microseconds *)
  h2 : float option;  (** initial slow step ([None]: [t_end / 50]) *)
  rtol : float;  (** step-controller relative tolerance *)
  n1 : int;  (** odd fast-time collocation size *)
  solver : Linalg.Structured.strategy;  (** [auto] when the request names none *)
}

type quasi_params = {
  n1 : int;  (** odd fast-time collocation size *)
  n2 : int;  (** odd slow-time collocation size *)
  p2 : float;  (** slow (forcing) period *)
  solver : Linalg.Structured.strategy;  (** [auto] when the request names none *)
}

type analysis = Envelope of envelope_params | Quasiperiodic of quasi_params

type job = {
  id : string;  (** non-empty, at most 64 chars of [[A-Za-z0-9._-]] *)
  circuit : string;  (** registry name, e.g. "vco-a" *)
  analysis : analysis;
  deadline_ms : float option;
      (** wall-clock budget from acceptance, milliseconds; the
          watchdog fails the job with a ["deadline-exceeded"] error
          past it *)
}

type request =
  | Submit of job
  | Cancel of string
  | Metrics
  | Stats  (** grouped daemon-wide cache/pool/health counters *)
  | Shutdown of { drain : bool }  (** [drain]: finish queued jobs first *)

(** A protocol-level failure: [code] is a stable machine-readable
    discriminant ("bad-json", "not-object", "missing-type",
    "unknown-type", "missing-field", "bad-field", "bad-value",
    "bad-id", "unknown-circuit", "duplicate-id", "unknown-id"). *)
type error = { code : string; message : string }

(** Total parser: never raises. *)
val parse_request : string -> (request, error) result

val analysis_name : analysis -> string

(** {1 Response encoders}

    Each returns one complete JSON line (no trailing newline). *)

val hello : quantum:int -> jobs:int -> string

val accepted : id:string -> queue_depth:int -> string

(** Emitted (instead of [accepted]) for each orphaned job a restarted
    daemon re-enqueued from the {!Journal}; [resumed] reports whether
    a bit-exact checkpoint was found to continue from.  An orphan whose
    request no longer parses gets an {!error_line} with its id instead. *)
val recovered : id:string -> resumed:bool -> queue_depth:int -> string

(** Protocol-level error response; [line] is the 1-based input line
    number, [id] the offending job id when one was parsed. *)
val error_line : ?line:int -> ?id:string -> error -> string

(** Typed terminal failure of an accepted job.  [kind] is a stable
    discriminant ("step-failure", "step-underflow", "solve-failed",
    "nonphysical", "corrupt-checkpoint", "solver-failure", "cancelled",
    "aborted", "deadline-exceeded", "stalled", "preempted",
    "internal").  [flight], when present, is the path of the
    ["wampde.flightdump/1"] postmortem written for this failure. *)
val job_error :
  ?flight:string -> id:string -> kind:string -> message:string -> quanta:int -> unit -> string

type summary = {
  analysis : string;
  wall_s : float;  (** total run time across quanta, seconds *)
  steps : int;  (** macro-step decisions recorded in the manifest *)
  quanta : int;
  preemptions : int;
  restarts : int;
  t2_end : float;  (** reached slow time (envelope) or [p2] (quasi) *)
  omega_end : float;  (** final (envelope) or mean (quasi) frequency *)
}

(** Terminal success record; [manifest] is an already-serialized
    ["wampde.run-report/1"] JSON object, embedded verbatim. *)
val result : id:string -> summary:summary -> manifest:string -> string

(** [metrics] is {!Wampde_obs.Metrics.to_json}, embedded verbatim. *)
val metrics_line : final:bool -> metrics:string -> string

(** Response to a ["stats"] request: one JSON object grouping the
    daemon-wide operational numbers by subsystem,

    {v
    {"type":"stats",
     "cache":{"orbit":{"hits":3,...}},
     "pool":{"runs":12,"busy_s":0.8,...},
     "health":{"warnings":2,"monitors":{"newton.stall":1,...}},
     "serve":{"jobs.submitted":4,...}}
    v}

    built from the {!Wampde_obs.Metrics.counters} / [gauges]
    snapshots: counters and gauges whose names start with
    ["cache.orbit."], ["pool."],
    ["health.warnings."] and ["serve."] land in the matching group
    with the prefix stripped (journal and watchdog counters ride in
    the ["serve"] group as [journal.*] and [watchdog.*]). *)
val stats_line : counters:(string * int) list -> gauges:(string * float) list -> string

val bye :
  submitted:int -> completed:int -> failed:int -> cancelled:int -> preempted:int -> string
