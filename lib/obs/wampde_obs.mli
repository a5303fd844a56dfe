(** Solver telemetry and run diagnostics: metrics registry with scoped
    cost accounting, span tracing with optional GC attribution, typed
    solver events, numerical-health monitors, and the run's artifacts —
    the [wampde.stream/1] NDJSON progress stream ({!Stream}), the
    [wampde.run-report/1] manifest ({!Report}, diagnosed by {!Doctor}),
    the [wampde.flightdump/1] postmortem ({!Flight}) and a
    Chrome/Perfetto trace ({!Trace_event}).  Every artifact that
    carries a solver event reads the same timestamped
    {!Events.record} and encodes it from the event's one field list.

    This library sits below every solver layer of the repository so
    that Newton solves, slow time-step accept/reject decisions and
    [omega(t2)] become first-class, inspectable data; the per-iteration
    work (Newton, LU, GMRES) is counted by {!Metrics}, not logged.

    Cost model: everything is {e off by default}.  Metrics updates and
    event dispatch are gated on one global flag ({!set_enabled});
    spans run the wrapped thunk directly unless the span sink is
    installed.  The disabled hot path is a single branch per call site
    and allocates nothing. *)

(** [set_enabled b] turns metrics collection and event dispatch on or
    off globally.  Span capture is controlled separately by the
    presence of the span sink (see {!Span.set_sink}). *)
val set_enabled : bool -> unit

val enabled : unit -> bool

(** Wall-clock seconds.  [Unix.gettimeofday] clamped to be
    non-decreasing: the [unix] binding exposes no CLOCK_MONOTONIC
    without C stubs, so a reading that went backwards (NTP slew, clock
    adjustment) returns the latest reading seen instead — span
    durations are truncated toward zero under a backwards step, never
    negative. *)
val now : unit -> float

(** Minimal JSON representation and recursive-descent parser — enough
    to validate this library's own output (run manifests, trace files,
    JSON-lines spans) without an external dependency. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  exception Error of string

  val parse : string -> (t, string) result

  (** [member k j] is the value at key [k] when [j] is an object. *)
  val member : string -> t -> t option

  val to_num : t -> float option
  val to_str : t -> string option

  (** Compact single-line serialization (inverse of {!parse} up to
      number formatting and object-key order, which are preserved). *)
  val to_string : t -> string
end

(** Named counters, gauges and log-scale histograms with O(1) updates.
    Metrics are process-global: looking a name up twice returns the
    same cell, so instrumented modules can create their handles at
    module-initialization time. *)
module Metrics : sig
  type counter
  type gauge
  type histogram

  (** [counter name] returns the counter registered under [name],
      creating it on first use.  Raises [Invalid_argument] if [name]
      is already registered as a different metric kind. *)
  val counter : string -> counter

  val gauge : string -> gauge
  val histogram : string -> histogram

  (** Enabled counter updates are additionally bucketed under the
      innermost {!Scope} label active at the call site (the empty
      label when none is), so sum-over-scopes always equals the
      unscoped total. *)
  val incr : counter -> unit

  val add : counter -> int -> unit
  val count : counter -> int
  val set : gauge -> float -> unit
  val value : gauge -> float

  (** [observe h v] records [v] into power-of-two (log-scale) buckets;
      suitable for latencies and iteration counts alike. *)
  val observe : histogram -> float -> unit

  val mean : histogram -> float

  (** Zero every registered metric, including scope buckets
      (registrations are kept). *)
  val reset : unit -> unit

  (** Snapshots, sorted by metric name. *)
  val counters : unit -> (string * int) list

  val gauges : unit -> (string * float) list

  (** Per-scope counter buckets, sorted by counter name then scope
      label ("" = updates outside any scope).  Only counters that were
      bumped while enabled appear. *)
  val scoped_counters : unit -> (string * (string * int) list) list

  (** [with_isolated f] snapshots every registered metric (plus the
      enabled flag and the active scope label), zeroes the registry,
      runs [f], and restores the snapshot — exceptions propagate, the
      restore happens either way.  Metrics first registered inside [f]
      stay registered but zeroed.  This is how tests keep the
      process-global registry from leaking across suites. *)
  val with_isolated : (unit -> 'a) -> 'a

  (** Human-readable table of every registered metric. *)
  val table : unit -> string

  (** Human-readable table of the per-scope counter buckets. *)
  val scoped_table : unit -> string

  (** One JSON object:
      [{"counters":{...},"gauges":{...},"histograms":{...},"scoped":{...}}]. *)
  val to_json : unit -> string
end

(** Dynamically-scoped cost-accounting labels naming the solver layer
    currently doing the work ("transient", "envelope.outer",
    "envelope.newton", "quasiperiodic", ...).  Shared leaf counters
    such as [lu.factor] and [gmres.iterations] are bucketed by the
    innermost label active when they are bumped, answering which layer
    incurred the cost.  Labels are set at solver layers, not inside
    the leaves themselves — bucketing [gmres.iterations] under a
    "gmres" scope would say nothing. *)
module Scope : sig
  (** [with_scope label f] runs [f] with [label] as the innermost
      scope; the previous label is restored on exit (exceptions
      propagate).  The label is the calling domain's own: scoped code
      on another domain neither sees nor changes it, and a spawned
      domain starts outside every scope. *)
  val with_scope : string -> (unit -> 'a) -> 'a

  (** [current ()] is the innermost scope's label, [""] outside every
      scope.  Tracked whether telemetry is on or off. *)
  val current : unit -> string
end

(** Typed values of span attributes and solver-event fields.  One JSON
    encoding serves every artifact that carries them: [Bool] prints as a
    JSON boolean, non-finite [Float]s as the strings ["nan"]/["inf"]/
    ["-inf"]. *)
type attr = Int of int | Float of float | Str of string | Bool of bool

(** Typed solver events, one per solve or macro-step decision, stamped
    once into a {!record} that every reader consumes: subscribers (the
    stream, the run report, the CLI's trace recorder) in subscription
    order, and the flight ring (see {!Flight}).  Emission is a no-op
    (and call sites guarded with {!Events.active} allocate nothing)
    unless telemetry is enabled and a subscriber or the flight ring is
    listening.  Per-iteration work is not an event: the [newton.*],
    [lu.*] and [gmres.*] counters carry it. *)
module Events : sig
  type t =
    | Newton_done of { solver : string; iterations : int; residual : float; converged : bool }
        (** one nonlinear solve finished after [iterations] iterations *)
    | Step_accept of { t : float; h : float }
    | Step_reject of { t : float; h : float; reason : string }
    | Step_retry of { t : float; h : float; h_next : float; reason : string }
        (** a solver failure (not error control) shrank the step: the
            step of size [h] at [t] is being re-attempted with [h_next] *)
    | Phase_condition of { omega : float; t2 : float }
    | Strategy_escalated of { solver : string; from_ : string; to_ : string }
        (** the globalization cascade for [solver] gave up on strategy
            [from_] and is escalating to [to_] *)
    | Health_warning of {
        monitor : string;
        value : float;
        threshold : float;
        t : float;  (** slow time of the observation; nan when unknown *)
        hint : string;
      }
        (** a numerical-health monitor (see {!Health}) crossed its
            threshold from below *)

  (** An emitted event: wall-clock time ({!now}), the innermost
      {!Scope} label at the call site, and the event. *)
  type record = { t_s : float; scope : string; event : t }

  type subscription

  val subscribe : (record -> unit) -> subscription
  val unsubscribe : subscription -> unit

  (** True iff telemetry is enabled and a subscriber or the flight ring
      is listening.  Guard event construction with this to keep the
      disabled path allocation-free:
      [if Events.active () then Events.emit (...)]. *)
  val active : unit -> bool

  val emit : t -> unit

  (** One [--trace] line per record (single line, no trailing newline):
      [{"type":"event","t_s":...,"scope":...,"event":name,...fields}],
      [t_s] on the span clock (see {!Span}).  The Perfetto instant of a
      record carries the same fields as its args. *)
  val to_json : record -> string
end

(** The smoothed-rate ETA estimator behind {!Stream}'s progress records
    (see [eta.mli]). *)
module Eta = Eta

(** Per-macro-step numerical-health monitors.

    Solver layers feed raw observations (spectral tail energy, GMRES
    iteration counts, Newton contraction rates, step accept/reject
    decisions); this module exposes them as [health.*] gauges and
    fires {!Events.Health_warning} when a monitor crosses its
    threshold.

    Health is the one judge of whether a run can be trusted.  Its
    seven monitors, each answering to one {!Doctor} category, are
    [t1_tail_energy] and [t1_over_resolution] ([t1_resolution]),
    [newton_rate], [gmres_stagnation], [gmres_plateau] and
    [cascade_pressure] ([solver_quality]), and [rejection_rate]
    ([stepping]).  One table in the implementation names them with
    their category and the hint their warnings carry.

    Threshold semantics (tested at the boundaries): a warning fires
    only when the observed value is {e strictly greater} than the
    threshold — a value exactly equal to the threshold does not fire —
    and only on the below-to-above {e crossing}: once above, repeated
    above-threshold observations stay silent until the monitor drops
    back to (or below) the threshold and crosses again.  Every firing
    also bumps the [health.warnings] counter and a per-monitor
    [health.warnings.<monitor>] counter.

    All feeders are no-ops while telemetry is disabled, and
    {!note_decision} additionally ignores decisions made inside the
    "transient" and "oscillator" scopes (micro steps of a univariate
    warmup or baseline, and the orbit solve, are not macro-step
    health). *)
module Health : sig
  type thresholds = {
    spectral_tol : float;
        (** relative spectral-energy tolerance used when estimating the
            needed harmonic count (mirrors [Series.harmonics_needed]) *)
    tail_tol : float;
        (** monitor [t1_tail_energy]: relative energy in the outer
            t1-harmonic band above which the grid counts as
            under-resolved *)
    over_resolution : float;
        (** monitor [t1_over_resolution]: fraction of unused harmonics
            (1 - needed/available) above which the grid counts as
            wastefully over-resolved *)
    gmres_stagnation : float;
        (** monitor [gmres_stagnation]: iterations / restart ratio
            above which a solve counts as stagnating (a failed solve
            always counts) *)
    gmres_plateau : float;
        (** monitor [gmres_plateau]: per-iteration residual-reduction
            factor above which convergence counts as plateaued *)
    gmres_plateau_min_iters : int;
        (** plateau detection needs at least this many iterations *)
    newton_rate : float;
        (** monitor [newton_rate]: estimated Newton contraction rate
            above which convergence counts as slow *)
    rejection_rate : float;
        (** monitor [rejection_rate]: fraction of rejected/retried
            decisions in the sliding window above which stepping counts
            as rejection-heavy *)
    rejection_window : int;  (** sliding-window length, >= 1 *)
    cascade_pressure : float;
        (** monitor [cascade_pressure]: escalations per macro-step
            decision above which the globalization cascade counts as
            overworked *)
  }

  val default_thresholds : thresholds
  val thresholds : unit -> thresholds

  (** Install new thresholds and {!reset} all monitor state.  Raises
      [Invalid_argument] when [rejection_window < 1]. *)
  val set_thresholds : thresholds -> unit

  (** Clear edge-trigger and sliding-window state (gauges and counters
      are owned by {!Metrics} and unaffected). *)
  val reset : unit -> unit

  (** [note_spectrum ~tail ~needed ~available] records the t1-grid
      health of one accepted macro step: [tail] is the relative
      spectral tail energy, [needed]/[available] the effective vs.
      available harmonic counts.  Updates [health.tail_energy],
      [health.effective_harmonics], [health.harmonics_available]. *)
  val note_spectrum : ?t:float -> tail:float -> needed:int -> available:int -> unit -> unit

  (** [note_newton ~iterations ~rate] records the estimated contraction
      rate of one Newton solve ([rate] ~ (r_last/r_first)^(1/iters)).
      Rates from fewer than two iterations update the gauge but never
      warn. *)
  val note_newton : ?t:float -> iterations:int -> rate:float -> unit -> unit

  (** [note_gmres ~iterations ~restart ~converged ~reduction] records
      one GMRES solve; [reduction] is the mean per-iteration residual
      reduction factor (nan when unknown). *)
  val note_gmres :
    ?t:float -> iterations:int -> restart:int -> converged:bool -> reduction:float -> unit -> unit

  (** Record one macro-step controller decision.  Ignored inside the
      "transient" and "oscillator" scopes. *)
  val note_decision : ?t:float -> outcome:[ `Accept | `Reject | `Retry ] -> unit -> unit

  (** Record one globalization-cascade escalation. *)
  val note_escalation : ?t:float -> unit -> unit
end

(** Bounded, non-blocking NDJSON progress sink.

    One JSON object per line: a [start] record, throttled [progress]
    records (the slow time [t2] an accepted macro step reached, with
    [omega(t2)] from the phase condition that completes it, and a
    smoothed-rate ETA when a total is known), periodic
    [heartbeat] records, the existing typed solver events
    (reject/retry/escalation/health warnings), and a terminal [done]
    or [error] record.  The stream is bounded: past [max_records] a
    single [truncated] marker is written and further non-terminal
    records are counted into the [stream.dropped] counter; the
    terminal record always goes through.

    Events from the "transient" and "oscillator" scopes are ignored
    (heartbeats still cover long warmups). *)
module Stream : sig

  type t

  (** [start ~write ~flush ()] writes the [start] record and subscribes
      to {!Events} (telemetry must be enabled for events to flow).
      [write] receives one complete JSON line (no trailing newline) per
      record and must not block; [flush] is called after significant
      records.  [total], when finite and positive, enables the ETA
      estimator (pass the target slow time [t2_end]).  [heartbeat_s]
      (default 5) bounds the silence between records; [min_progress_s]
      (default 0.25) throttles progress records; [max_records] (default
      100_000) bounds the stream.  [job], when given, is spliced into
      every record as a leading ["job"] field so several per-job
      streams can share one output channel and stay separable. *)
  val start :
    ?heartbeat_s:float ->
    ?min_progress_s:float ->
    ?max_records:int ->
    ?total:float ->
    ?run:string ->
    ?job:string ->
    write:(string -> unit) ->
    flush:(unit -> unit) ->
    unit ->
    t

  (** [suspend s] detaches the stream from {!Events} without writing
      anything; [resume s] re-attaches it.  A scheduler multiplexing
      several job streams keeps exactly one resumed — the job whose
      quantum is running — so solver events are never attributed to a
      preempted job.  Both are idempotent; [resume] after {!finish} is
      a no-op. *)
  val suspend : t -> unit

  val resume : t -> unit

  (** [finish s ~ok ()] unsubscribes and writes the terminal record —
      [done] when [ok], [error] (with [?error], default "aborted")
      otherwise.  Idempotent: only the first call writes, so a normal
      shutdown path and an [at_exit] safety net can both call it. *)
  val finish : t -> ok:bool -> ?error:string -> unit -> unit

end

(** Nested wall-clock spans with parent ids and attributes.

    [Span.span "newton.solve" @@ fun () -> ...] times the thunk and
    hands its start and stop to the one sink when it is installed;
    otherwise it just runs the thunk.  No span is stored: the [--trace]
    lines, the span tree, the Perfetto writer and perfbench's ledger
    all read the stream as it goes. *)
module Span : sig
  type nonrec attr = attr = Int of int | Float of float | Str of string | Bool of bool

  (** GC work attributed to one span: [Gc.quick_stat] deltas between
      entry and exit (see {!set_gc_stats}). *)
  type gc_delta = {
    minor_words : float;
    promoted_words : float;
    major_words : float;
    minor_collections : int;
    major_collections : int;
  }

  (** One span boundary; times are seconds since tracing began.  [tid]
      is [None] for a span opened by {!span} and [Some t] for one
      reported through {!emit_external}; [gc] is present when GC
      attribution was on. *)
  type event =
    | Start of {
        id : int;
        parent : int option;
        name : string;
        attrs : (string * attr) list;
        t_s : float;
        tid : int option;
      }
    | Stop of { id : int; name : string; t_s : float; dur_s : float; gc : gc_delta option; tid : int option }

  val tracing : unit -> bool

  (** [set_gc_stats true] makes every subsequent span snapshot
      [Gc.quick_stat] at entry and exit and put the deltas in its
      [Stop].  Off by default: [quick_stat] is cheap but allocates its
      result record, so GC attribution stays opt-in even while
      tracing. *)
  val set_gc_stats : bool -> unit

  (** [span ?attrs name f] runs [f] inside a span.  Exceptions
      propagate; the span is closed either way. *)
  val span : ?attrs:(string * attr) list -> string -> (unit -> 'a) -> 'a

  (** [emit_external ~tid ~name ~t_start ~t_stop ()] reports a span
      that ran on another domain as a parentless [Start] and [Stop],
      back to back.  Pool workers must not touch this module's
      (unsynchronized) global state, so they only write wall-clock
      readings into caller-owned arrays; the calling domain reports
      them here, after the barrier.  [t_start]/[t_stop] are absolute
      {!now}-style readings; [tid] picks the trace track (1 = the
      calling domain, [1 + w] for worker [w]).  A no-op when no sink
      is installed. *)
  val emit_external :
    ?attrs:(string * attr) list ->
    tid:int ->
    name:string ->
    t_start:float ->
    t_stop:float ->
    unit ->
    unit

  (** [set_sink (Some k)] hands every span boundary to [k] (installing
      it while none is active restarts the trace clock); [set_sink
      None] uninstalls. *)
  val set_sink : (event -> unit) option -> unit

  (** The [--trace] line of a boundary, no trailing newline:
      [span_start] (id, parent, name, t_s, tid when external, attrs)
      or [span_stop] (id, name, t_s, dur_s, tid when external, gc). *)
  val to_json : event -> string

  (** [set_sink] with each boundary formatted by {!to_json}. *)
  val set_writer : (string -> unit) option -> unit

  (** A span tree aggregated from the stream as it arrives, grouped by
      name path from the root (an external span is a root): call
      counts, total seconds and, when GC attribution was on, allocated
      words and collections.  It grows with nesting depth and the
      number of distinct paths, not with the number of spans. *)
  type tree

  val tree : unit -> tree
  val add : tree -> event -> unit
  val tree_summary : tree -> string
end

(** Chrome trace-event writer: streams the JSON array format understood
    by [ui.perfetto.dev] and [chrome://tracing] as the run goes.  Each
    span boundary becomes a ["B"] or ["E"] event on its track (the GC
    deltas as the ["E"] event's args), each event record an instant
    (["i"]) whose args are the event's fields, and each track gets a
    [thread_name] metadata event where it first appears.  Timestamps
    are microseconds on the span clock, in emission order.  A trace
    with no span and no event closes with one synthetic
    ["trace_start"] instant (viewers reject traces with no events). *)
module Trace_event : sig
  type t

  (** Writes the array's opening and the process metadata through
      [write], which takes raw chunks. *)
  val start : ?process_name:string -> (string -> unit) -> t

  val span : t -> Span.event -> unit
  val instant : t -> Events.record -> unit

  (** Closes the array; call once. *)
  val finish : t -> unit
end

(** Self-contained JSON run manifests: what ran (argv, subcommand, git
    describe, OCaml version), what it cost (wall clock, GC totals,
    metrics snapshot including scoped counters) and what the solver
    did (per-macro-step history of step size, [omega(t2)], Newton
    work, accept/reject trail). *)
module Report : sig

  (** One macro-step decision reconstructed from the event records. *)
  type step = {
    t : float;
    h : float;
    omega : float option;  (** from the Phase_condition following an accept *)
    newton_iterations : int;  (** summed over the [Newton_done]s since the last decision *)
    residual : float;  (** the last [Newton_done]'s residual; nan if none *)
    outcome : string;  (** "accept" | "reject" | "retry" *)
    reason : string option;
  }

  type collector

  (** [collect ()] subscribes to {!Events} and starts accumulating the
      per-macro-step history; telemetry must be enabled for events to
      flow.  Records from the "transient" scope (micro steps of a
      univariate integration — warmup or baseline) and the
      "oscillator" scope (the orbit solve before a march) are
      excluded: the history is about slow-time macro steps and the
      march's own solves, and the scoped counters carry the rest. *)
  val collect : unit -> collector

  (** Unsubscribes and returns the history in chronological order. *)
  val finish : collector -> step list

  (** Best-effort [git describe --always --dirty]; [None] when git or
      the work tree is unavailable. *)
  val git_describe : unit -> string option

  (** Serialize the manifest.  [argv] defaults to [Sys.argv]; the
      metrics snapshot is taken from the live registry at this call.
      [jobs] (default 1) records the requested [--jobs] parallelism so
      a manifest identifies serial and multicore runs; the pool's own
      counters and gauges ride along in the metrics snapshot. *)
  val manifest :
    ?argv:string array ->
    ?subcommand:string ->
    ?git:string ->
    ?jobs:int ->
    wall_s:float ->
    steps:step list ->
    unit ->
    string

  (** Validate a manifest string: well-formed JSON, required fields
      present and well-typed, every scoped counter's sum over scopes
      equal to its unscoped total, history outcomes well-formed. *)
  val check : string -> (unit, string) result

  (** Render a manifest string to a markdown summary (provenance
      table, solver-work counters, scoped cost breakdown, step
      history).  Validates first. *)
  val to_markdown : string -> (string, string) result
end

(** Post-hoc run diagnosis: turn a {!Report} manifest (or a flight
    dump, and optionally an NDJSON stream) into a short list of
    findings answering two questions.

    Where did the time go: the dominant cost scope ([cost]) and, for
    [--jobs] runs, pool efficiency ([parallelism]).

    Can the answer be trusted: the doctor judges nothing itself here,
    it reports {!Health}'s verdicts.  Each monitor whose
    [health.warnings.<monitor>] counter is nonzero gives one warning
    in its category ([t1_resolution], [solver_quality], [stepping])
    naming the monitor, with the monitor's hint as the suggestion (a
    t1 warning adds an [n1] worked out from the last step's harmonic
    gauges).  A category where no monitor fired gives one
    informational line of measured facts: harmonics in use against
    harmonics available; GMRES iterations per solve (or the dense
    path), preconditioner fallbacks, cascade escalations and rejected
    trust-region steps; accepted, rejected and retried macro steps
    (only once a step was decided).  The thresholds are those Health
    ran with, {!Health.set_thresholds} included.

    A stream adds its cross-check ([stream]).  The diagnosis always
    includes at least the cost, t1-resolution and solver-quality
    categories; warnings sort first. *)
module Doctor : sig
  type severity = Info | Warn

  type finding = {
    category : string;
        (** "cost" | "t1_resolution" | "solver_quality" | "stepping" |
            "parallelism" | "stream" *)
    severity : severity;
    summary : string;
    suggestion : string option;
  }

  (** [diagnose_string ?stream contents] diagnoses a manifest's raw
      file contents (and an optional NDJSON stream's); [Error] on
      anything {!Report.check} rejects (malformed JSON, a flight dump,
      any other JSON that is not a run manifest). *)
  val diagnose_string : ?stream:string -> string -> (finding list, string) result

  val has_warnings : finding list -> bool

  (** Human-readable rendering (one header line plus one line per
      finding with an indented suggestion). *)
  val render : finding list -> string

  (** JSON rendering ({["wampde.doctor/1"]} schema). *)
  val to_json : finding list -> string
end

(** Flight recorder: the last 512 cells of the run, kept so that a
    failure can dump its last moments as a ["wampde.flightdump/1"]
    JSON file for postmortem analysis.  The cells live in one ring,
    allocated by the first {!clear}: every {!Events.record} emitted
    since, a small metric snapshot after each macro-step decision, and
    out-of-band notes (fault-harness trips, signals).  Overwriting the
    oldest cell is a store plus two index updates. *)
module Flight : sig

  (** Start a fresh timeline: drop every cell and keep every event
      record emitted from now on (telemetry must be enabled for events
      to flow; {!note}s are kept regardless).  A run calls it once; a
      scheduler running jobs back-to-back calls it per job so a dump
      never carries a previous job's tail. *)
  val clear : unit -> unit

  (** [note ~kind msg] records an out-of-band timeline marker (e.g.
      [~kind:"fault"] on a fault-harness trip).  Unlike events, notes
      are recorded even while telemetry is disabled, so an injected
      fault is always on the timeline of the dump it caused. *)
  val note : kind:string -> string -> unit

  (** [write ~path ~kind ~message ()] serializes the ring to [path] as
      a ["wampde.flightdump/1"] JSON object: the shared provenance
      block (argv, subcommand, jobs, git, OCaml, unix time — identical
      to the run-manifest block), the failure [reason], ring occupancy
      ([capacity], [recorded], [dropped]), a full metrics snapshot (so
      {!Doctor} can diagnose the dump like a manifest), and the
      timeline oldest first — with the failure reason appended as the
      final entry.  Returns the path; [Error] on I/O failure (a failing
      dump must never mask the failure it records). *)
  val write :
    ?argv:string array ->
    ?subcommand:string ->
    ?git:string ->
    ?jobs:int ->
    path:string ->
    kind:string ->
    message:string ->
    unit ->
    (string, string) result

  (** Render a dump file's contents as a human postmortem: the failure
      reason, provenance, the timeline (oldest first, the failing
      event last), and {!Doctor} findings computed from the embedded
      metrics snapshot.  [Error] on malformed input or a non-flightdump
      schema. *)
  val to_postmortem : string -> (string, string) result
end
