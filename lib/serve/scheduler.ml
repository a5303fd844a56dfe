module Obs = Wampde_obs

let c_submitted = Obs.Metrics.counter "serve.jobs.submitted"
let c_completed = Obs.Metrics.counter "serve.jobs.completed"
let c_failed = Obs.Metrics.counter "serve.jobs.failed"
let c_cancelled = Obs.Metrics.counter "serve.jobs.cancelled"
let c_preempted_jobs = Obs.Metrics.counter "serve.jobs.preempted"
let c_quanta = Obs.Metrics.counter "serve.quanta"
let c_preemptions = Obs.Metrics.counter "serve.preemptions"
let c_restarts = Obs.Metrics.counter "serve.restarts"
let c_retry_attempts = Obs.Metrics.counter "serve.retry.attempts"
let c_retry_recovered = Obs.Metrics.counter "serve.retry.recovered"
let c_retry_exhausted = Obs.Metrics.counter "serve.retry.exhausted"
let c_journal_recovered = Obs.Metrics.counter "serve.journal.recovered"
let c_journal_resumed = Obs.Metrics.counter "serve.journal.resumed"

(* same instance as the supervisor's: the registry dedupes by name *)
let c_watchdog_deadline = Obs.Metrics.counter "serve.watchdog.deadline_exceeded"
let g_depth = Obs.Metrics.gauge "serve.queue_depth"
let c_orbit_hits = Obs.Metrics.counter "cache.orbit.hits"
let c_orbit_misses = Obs.Metrics.counter "cache.orbit.misses"
let g_orbit_entries = Obs.Metrics.gauge "cache.orbit.entries"

(* ---------- circuit registry ---------- *)

type circuit_entry = {
  dae : unit -> Dae.t;  (* forced system the job simulates *)
  frozen : unit -> Dae.t * Linalg.Vec.t;  (* autonomous system + x0 for the orbit *)
}

let registry =
  [
    ( "vco-a",
      {
        dae = (fun () -> Circuit.Vco.build (Circuit.Vco.vco_a ()));
        frozen =
          (fun () ->
            let p = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
            (Circuit.Vco.build p, Circuit.Vco.initial_state p));
      } );
    ( "vco-b",
      {
        dae = (fun () -> Circuit.Vco.build (Circuit.Vco.vco_b ()));
        frozen =
          (fun () ->
            let p =
              Circuit.Vco.default_params ~damping:1.57 ~force0:4.0e-3 ~control:(fun _ -> 1.5) ()
            in
            (Circuit.Vco.build p, Circuit.Vco.initial_state p));
      } );
  ]

let circuits () = List.map fst registry

(* ---------- job bookkeeping ---------- *)

type status = Queued | Done | Failed | Cancelled | Parked

type jobrec = {
  job : Protocol.job;
  entry : circuit_entry;
  ckpt : string;
  deadline_at : float;  (* absolute wall clock; infinity = none *)
  mutable status : status;
  mutable quanta : int;
  mutable preemptions : int;
  mutable restarts : int;
  mutable retries : int;
  mutable not_before : float;  (* retry-backoff gate, absolute wall clock *)
  mutable started : bool;  (* current attempt has journaled its Running frame *)
  mutable steps : Obs.Report.step list;
  mutable stream : Obs.Stream.t option;
  mutable wall : float;
  mutable has_ckpt : bool;
  mutable cancelled : bool;
}

type t = {
  quantum : int;
  spool : string;
  max_retries : int;
  retry_base_s : float;
  stall_s : float;  (* infinity disables the stall watchdog *)
  emit : string -> unit;
  log : string -> unit;
  journal : Journal.t;
  breaker : Supervisor.Breaker.t;
  queue : string Queue.t;
  jobs : (string, jobrec) Hashtbl.t;
  settled : (string, Dae.t * Steady.Oscillator.settled) Hashtbl.t;  (* by circuit *)
  orbits : (string, Steady.Oscillator.orbit) Hashtbl.t;  (* by (circuit, n1) *)
  mutable submitted : int;
  mutable completed : int;
  mutable failed : int;
  mutable cancelled_n : int;
  mutable preempted_n : int;
}

type counts = {
  submitted : int;
  completed : int;
  failed : int;
  cancelled : int;
  preempted : int;
}

let counts (t : t) =
  {
    submitted = t.submitted;
    completed = t.completed;
    failed = t.failed;
    cancelled = t.cancelled_n;
    preempted = t.preempted_n;
  }

let create ?(max_retries = 0) ?(retry_base_s = 0.1) ?(stall_timeout_s = Float.infinity)
    ?(breaker_threshold = 5) ?(breaker_cooldown_s = 5.) ~quantum ~spool ~emit ~log () =
  Obs.Metrics.set g_depth 0.;
  {
    quantum = max 1 quantum;
    spool;
    max_retries = max 0 max_retries;
    retry_base_s = Float.max 0. retry_base_s;
    stall_s = (if stall_timeout_s > 0. then stall_timeout_s else Float.infinity);
    emit;
    log;
    journal = Journal.open_ ~spool;
    breaker = Supervisor.Breaker.create ~threshold:breaker_threshold ~cooldown_s:breaker_cooldown_s;
    queue = Queue.create ();
    jobs = Hashtbl.create 32;
    settled = Hashtbl.create 4;
    orbits = Hashtbl.create 8;
    submitted = 0;
    completed = 0;
    failed = 0;
    cancelled_n = 0;
    preempted_n = 0;
  }

let breaker_states t = Supervisor.Breaker.states t.breaker
let breaker_key (job : Protocol.job) = job.circuit ^ "/" ^ Protocol.analysis_name job.analysis
let attempt jr = jr.retries + 1
let journal_put t jr state = Journal.append t.journal { Journal.id = jr.job.id; state; attempt = attempt jr }

let set_depth t = Obs.Metrics.set g_depth (float_of_int (Queue.length t.queue))

let err code fmt = Printf.ksprintf (fun message -> Error { Protocol.code; message }) fmt

let make_jobrec t entry (job : Protocol.job) ~retries ~has_ckpt =
  {
    job;
    entry;
    ckpt = Filename.concat t.spool (job.id ^ ".ckpt");
    deadline_at =
      (match job.deadline_ms with
      | Some ms -> Unix.gettimeofday () +. (ms /. 1000.)
      | None -> Float.infinity);
    status = Queued;
    quanta = 0;
    preemptions = 0;
    restarts = 0;
    retries;
    not_before = 0.;
    started = false;
    steps = [];
    stream = None;
    wall = 0.;
    has_ckpt;
    cancelled = false;
  }

let submit (t : t) ?(request = "") (job : Protocol.job) =
  match List.assoc_opt job.circuit registry with
  | None ->
    err "unknown-circuit" "unknown circuit %S (known: %s)" job.circuit
      (String.concat ", " (circuits ()))
  | Some entry ->
    if Hashtbl.mem t.jobs job.id then err "duplicate-id" "job id %S already used" job.id
    else begin
      let jr = make_jobrec t entry job ~retries:0 ~has_ckpt:false in
      Hashtbl.add t.jobs job.id jr;
      Queue.add job.id t.queue;
      t.submitted <- t.submitted + 1;
      Obs.Metrics.incr c_submitted;
      set_depth t;
      journal_put t jr (Journal.Accepted { request });
      t.log
        (Printf.sprintf "serve: accepted %s (%s on %s), queue depth %d" job.id
           (Protocol.analysis_name job.analysis) job.circuit (Queue.length t.queue));
      t.emit (Protocol.accepted ~id:job.id ~queue_depth:(Queue.length t.queue));
      Ok ()
    end

(* Replay the journal left by a previous daemon on this spool and
   re-enqueue every job that never reached a terminal state.  The
   journal's raw request line goes back through the same total parser
   that admitted it; the on-disk checkpoint (when the crash left one)
   is the resume authority, so the recovered job continues bit-exactly
   where the dead daemon checkpointed it. *)
let recover (t : t) =
  let records, warnings =
    match Journal.replay ~spool:t.spool with
    | r -> r
    | exception Checkpoint.Corrupt m -> ([], [ m ])
  in
  List.iter (fun w -> t.log ("serve: " ^ w)) warnings;
  let orphans = Journal.orphans records in
  List.iter
    (fun (o : Journal.orphan) ->
      match Protocol.parse_request o.request with
      | Ok (Protocol.Submit job) when not (Hashtbl.mem t.jobs job.id) -> (
        match List.assoc_opt job.circuit registry with
        | None -> t.log (Printf.sprintf "serve: journal job %s names unknown circuit %S" o.id job.circuit)
        | Some entry ->
          let jr = make_jobrec t entry job ~retries:(max 0 (o.attempt - 1)) ~has_ckpt:false in
          jr.has_ckpt <- Sys.file_exists jr.ckpt;
          Hashtbl.add t.jobs job.id jr;
          Queue.add job.id t.queue;
          t.submitted <- t.submitted + 1;
          Obs.Metrics.incr c_submitted;
          Obs.Metrics.incr c_journal_recovered;
          if jr.has_ckpt then Obs.Metrics.incr c_journal_resumed;
          t.log
            (Printf.sprintf "serve: recovered %s from journal (last state %s, attempt %d%s)" o.id
               (Journal.state_name o.last) o.attempt
               (if jr.has_ckpt then ", resuming from checkpoint" else ", restarting"));
          t.emit
            (Protocol.recovered ~id:job.id ~resumed:jr.has_ckpt ~attempt:(attempt jr)
               ~queue_depth:(Queue.length t.queue)))
      | Ok _ | Error _ ->
        t.log (Printf.sprintf "serve: journal request for %s no longer parses; dropping" o.id))
    orphans;
  set_depth t

let cancel t id =
  match Hashtbl.find_opt t.jobs id with
  | Some jr when jr.status = Queued ->
    jr.cancelled <- true;
    Ok ()
  | Some _ -> err "unknown-id" "job %S already finished" id
  | None -> err "unknown-id" "no such job %S" id

(* ---------- shared warm state ---------- *)

let orbit_for t jr ~n1 =
  let key = Printf.sprintf "%s|n1=%d" jr.job.circuit n1 in
  match Hashtbl.find_opt t.orbits key with
  | Some orbit ->
    Obs.Metrics.incr c_orbit_hits;
    orbit
  | None ->
    Obs.Metrics.incr c_orbit_misses;
    (* the warm-up does not depend on n1: settle once per circuit,
       polish per n1; the span is Oscillator.find's, so the ledger
       still counts one find per miss *)
    let orbit =
      Obs.Span.span
        ~attrs:[ ("n1", Obs.Span.Int n1); ("circuit", Obs.Span.Str jr.job.circuit) ]
        "oscillator.find"
      @@ fun () ->
      let dae, settled =
        match Hashtbl.find_opt t.settled jr.job.circuit with
        | Some s -> s
        | None ->
          let dae, x0 = jr.entry.frozen () in
          let s = (dae, Steady.Oscillator.settle dae ~period_hint:(1. /. 0.75) x0) in
          Hashtbl.replace t.settled jr.job.circuit s;
          s
      in
      Steady.Oscillator.polish dae ~n1 settled
    in
    Hashtbl.replace t.orbits key orbit;
    Obs.Metrics.set g_orbit_entries (float_of_int (Hashtbl.length t.orbits));
    orbit

(* ---------- terminal transitions ---------- *)

let remove_ckpt jr =
  if jr.has_ckpt then (try Sys.remove jr.ckpt with Sys_error _ -> ());
  jr.has_ckpt <- false

let close_stream jr ~ok ?error () =
  (match jr.stream with
  | Some s -> Obs.Stream.finish s ~ok ?error ()
  | None -> ());
  jr.stream <- None

let finish_cancelled (t : t) jr ~kind =
  close_stream jr ~ok:false ~error:kind ();
  remove_ckpt jr;
  jr.status <- Cancelled;
  t.cancelled_n <- t.cancelled_n + 1;
  Obs.Metrics.incr c_cancelled;
  journal_put t jr (Journal.Error { kind });
  (* a cancelled half-open probe must not wedge the breaker *)
  Supervisor.Breaker.release t.breaker ~key:(breaker_key jr.job) ~now:(Unix.gettimeofday ());
  t.log (Printf.sprintf "serve: %s %s after %d quanta" kind jr.job.id jr.quanta);
  t.emit
    (Protocol.job_error ~id:jr.job.id ~kind
       ~message:(Printf.sprintf "job %s before completion" kind)
       ~quanta:jr.quanta ())

(* Every typed job failure gets a flight dump next to its checkpoint in
   the spool; the dump path rides on the job-error record so a client
   can fetch the postmortem.  A dump that itself fails to write is
   logged and dropped — it must never mask the job failure. *)
let write_flight (t : t) jr ~kind ~message =
  let path = Filename.concat t.spool (jr.job.id ^ ".flight.json") in
  let subcommand = "serve:" ^ Protocol.analysis_name jr.job.analysis in
  match
    Obs.Flight.write ~subcommand
      ?git:(Obs.Report.git_describe ())
      ~jobs:(Par.Pool.jobs ()) ~path ~kind ~message ()
  with
  | Ok path -> Some path
  | Error msg ->
    t.log (Printf.sprintf "serve: job %s flight dump failed: %s" jr.job.id msg);
    None

(* Which failure kinds feed the per-(circuit, analysis) breaker: only
   genuine solver verdicts.  Administrative terminations (cancel,
   abort, preemption), budget overruns and the breaker's own
   fast-fails say nothing about whether the analysis is healthy. *)
let breaker_counts_kind = function
  | "cancelled" | "aborted" | "preempted" | "deadline-exceeded" | "breaker-open" -> false
  | _ -> true

let finish_failed ?(dump = true) (t : t) jr ~kind ~message =
  close_stream jr ~ok:false ~error:kind ();
  remove_ckpt jr;
  jr.status <- Failed;
  t.failed <- t.failed + 1;
  Obs.Metrics.incr c_failed;
  journal_put t jr (Journal.Error { kind });
  let bkey = breaker_key jr.job in
  if breaker_counts_kind kind then
    Supervisor.Breaker.failure t.breaker ~key:bkey ~now:(Unix.gettimeofday ())
  else if kind <> "breaker-open" then
    Supervisor.Breaker.release t.breaker ~key:bkey ~now:(Unix.gettimeofday ());
  let flight = if dump then write_flight t jr ~kind ~message else None in
  t.log
    (Printf.sprintf "serve: job %s failed (%s): %s%s" jr.job.id kind message
       (match flight with Some p -> " [flight: " ^ p ^ "]" | None -> ""));
  t.emit (Protocol.job_error ?flight ~id:jr.job.id ~kind ~message ~quanta:jr.quanta ())

let finish_done (t : t) jr ~t2_end ~omega_end =
  close_stream jr ~ok:true ();
  remove_ckpt jr;
  jr.status <- Done;
  t.completed <- t.completed + 1;
  Obs.Metrics.incr c_completed;
  journal_put t jr Journal.Done;
  Supervisor.Breaker.success t.breaker ~key:(breaker_key jr.job);
  if jr.retries > 0 then Obs.Metrics.incr c_retry_recovered;
  let analysis = Protocol.analysis_name jr.job.analysis in
  let manifest =
    Obs.Report.manifest ~subcommand:("serve:" ^ analysis) ~jobs:(Par.Pool.jobs ()) ~wall_s:jr.wall
      ~steps:jr.steps ()
  in
  let summary =
    {
      Protocol.analysis;
      wall_s = jr.wall;
      steps = List.length jr.steps;
      quanta = jr.quanta;
      preemptions = jr.preemptions;
      restarts = jr.restarts;
      t2_end;
      omega_end;
    }
  in
  t.log
    (Printf.sprintf "serve: job %s done in %d quanta (%d preemptions, %.3f s)" jr.job.id jr.quanta
       jr.preemptions jr.wall);
  t.emit (Protocol.result ~id:jr.job.id ~summary ~manifest)

(* ---------- quantum execution ---------- *)

type outcome =
  | Complete of { t2_end : float; omega_end : float }
  | Preempt
  | Restart of string
  | Fail of { kind : string; message : string }

let classify = function
  | Supervisor.Deadline_exceeded -> ("deadline-exceeded", "wall-clock deadline exceeded")
  | Supervisor.Stalled { idle_s } ->
    ("stalled", Printf.sprintf "watchdog: no solver progress for %.2f s" idle_s)
  | Transient.Step_failure _ as e -> ("step-failure", Printexc.to_string e)
  | Step_control.Underflow { t; h } ->
    ("step-underflow", Printf.sprintf "step control gave up at t2 = %g (h2 = %g)" t h)
  | Checkpoint.Corrupt msg -> ("corrupt-checkpoint", msg)
  | (Nonlin.Polyalg.Solve_failed _ | Wampde.Quasiperiodic.Solve_failure _) as e ->
    ("solve-failed", Printexc.to_string e)
  | Steady.Oscillator.Nonphysical msg -> ("nonphysical", msg)
  | Failure msg -> ("solver-failure", msg)
  | e -> ("internal", Printexc.to_string e)

let last (v : Linalg.Vec.t) = v.(Array.length v - 1)

let stream_for t jr ~total =
  match jr.stream with
  | Some s ->
    Obs.Stream.resume s;
    s
  | None ->
    let s =
      Obs.Stream.start ~job:jr.job.id
        ~run:(Protocol.analysis_name jr.job.analysis)
        ~total ~min_progress_s:0.05 ~write:t.emit
        ~flush:(fun () -> ())
        ()
    in
    jr.stream <- Some s;
    s

let exec_envelope t jr (p : Protocol.envelope_params) =
  let dae = jr.entry.dae () in
  let orbit = orbit_for t jr ~n1:p.n1 in
  let options =
    Wampde.Envelope.default_options ~n1:p.n1 ~solver:p.solver ~precond_cache:jr.job.circuit ()
  in
  let control =
    Step_control.default_options ~rtol:p.rtol ~atol:(p.rtol /. 1000.) ~h_min:1e-9
      ~h_max:(p.t_end /. 2.) ()
  in
  let accepted = ref 0 in
  let res =
    Wampde.Envelope.simulate_controlled dae ~options ~control ?h2_init:p.h2
      ~checkpoint:(jr.ckpt, max_int)
      ?resume:(if jr.has_ckpt then Some jr.ckpt else None)
      ~on_accept:(fun ~t2:_ ~omega:_ ->
        Supervisor.touch ();
        incr accepted)
      ~preempt:(fun ~t2:_ -> !accepted >= t.quantum)
      ~t2_end:p.t_end ~init:orbit ()
  in
  Complete { t2_end = last res.Wampde.Envelope.t2; omega_end = last res.Wampde.Envelope.omega }

let exec_quasi t jr (p : Protocol.quasi_params) =
  let dae = jr.entry.dae () in
  let orbit = orbit_for t jr ~n1:p.n1 in
  let options = Wampde.Envelope.default_options ~n1:p.n1 ~precond_cache:jr.job.circuit () in
  let env = Wampde.Envelope.simulate dae ~options ~t2_end:p.t_warm ~h2:p.h2_warm ~init:orbit in
  let guess =
    Wampde.Quasiperiodic.guess_from_envelope env ~p2:p.p2 ~n2:p.n2 ~t_from:(p.t_warm -. p.p2)
  in
  let sol =
    Wampde.Quasiperiodic.solve dae ~options:{ options with solver = p.solver } ~p2:p.p2 ~n2:p.n2
      ~guess ()
  in
  Complete { t2_end = p.p2; omega_end = Wampde.Quasiperiodic.mean_frequency sol }

let run_quantum t jr =
  let total =
    match jr.job.analysis with
    | Protocol.Envelope p -> p.t_end
    | Protocol.Quasiperiodic p -> p.t_warm
  in
  ignore (stream_for t jr ~total);
  (* fresh timeline per quantum: a dump for this job must not carry a
     previous job's (or previous quantum's) tail *)
  Obs.Flight.clear ();
  let collector = Obs.Report.collect () in
  let settle () = jr.steps <- jr.steps @ Obs.Report.finish collector in
  let deadline_s =
    if jr.deadline_at = Float.infinity then None
    else Some (jr.deadline_at -. Unix.gettimeofday ())
  in
  let stall_s = if t.stall_s = Float.infinity then None else Some t.stall_s in
  match
    Supervisor.guard ?deadline_s ?stall_s (fun () ->
        match jr.job.analysis with
        | Protocol.Envelope p -> exec_envelope t jr p
        | Protocol.Quasiperiodic p -> exec_quasi t jr p)
  with
  | outcome ->
    settle ();
    outcome
  | exception Wampde.Envelope.Preempted _ ->
    settle ();
    jr.has_ckpt <- true;
    Preempt
  | exception Checkpoint.Corrupt msg when jr.has_ckpt && jr.restarts = 0 ->
    settle ();
    Restart msg
  | exception ((Stack_overflow | Out_of_memory) as e) ->
    settle ();
    raise e
  | exception e ->
    settle ();
    let kind, message = classify e in
    Fail { kind; message }

(* Transient solver verdicts worth a seeded-backoff retry from the
   last checkpoint.  Structural rejections (underflow, nonphysical,
   corrupt input) and watchdog/administrative kinds are permanent. *)
let retryable_kind = function
  | "step-failure" | "solve-failed" | "solver-failure" -> true
  | _ -> false

type slice = Ran | Idle | Wait of float

(* Pop the first runnable job: cancelled and deadline-blown jobs are
   always runnable (their slice is the terminal transition); jobs
   inside a retry-backoff window rotate to the back.  [Wait s] when
   every queued job is backing off. *)
let take_runnable t now =
  let n = Queue.length t.queue in
  let soonest = ref Float.infinity in
  let rec go i =
    if i >= n then None
    else
      match Queue.take_opt t.queue with
      | None -> None
      | Some id ->
        let jr = Hashtbl.find t.jobs id in
        if jr.cancelled || now >= jr.not_before || now >= jr.deadline_at then Some jr
        else begin
          soonest := Float.min !soonest (jr.not_before -. now);
          Queue.add id t.queue;
          go (i + 1)
        end
  in
  match go 0 with
  | Some jr -> `Run jr
  | None -> if !soonest = Float.infinity then `Idle else `Wait !soonest

let retry t jr ~kind ~message =
  jr.retries <- jr.retries + 1;
  jr.started <- false;
  Obs.Metrics.incr c_retry_attempts;
  let delay =
    Supervisor.backoff_s ~base:t.retry_base_s ~attempt:jr.retries ~seed:(Hashtbl.hash jr.job.id)
  in
  jr.not_before <- Unix.gettimeofday () +. delay;
  (match jr.stream with Some s -> Obs.Stream.suspend s | None -> ());
  t.log
    (Printf.sprintf "serve: job %s failed (%s): %s; retry %d/%d in %.3f s%s" jr.job.id kind message
       jr.retries t.max_retries delay
       (if jr.has_ckpt then " from checkpoint" else " from scratch"));
  Queue.add jr.job.id t.queue;
  set_depth t

let run_slice t =
  let now = Unix.gettimeofday () in
  match take_runnable t now with
  | `Idle -> Idle
  | `Wait s -> Wait s
  | `Run jr ->
    let id = jr.job.id in
    set_depth t;
    (if jr.cancelled then finish_cancelled t jr ~kind:"cancelled"
     else if now >= jr.deadline_at then begin
       Obs.Metrics.incr c_watchdog_deadline;
       finish_failed t jr ~kind:"deadline-exceeded"
         ~message:
           (Printf.sprintf "wall-clock deadline (%.0f ms) exceeded before completion"
              (Option.value jr.job.deadline_ms ~default:0.))
     end
     else begin
       match Supervisor.Breaker.decide t.breaker ~key:(breaker_key jr.job) ~now with
       | Supervisor.Breaker.Fast_fail { retry_after_s } ->
         (* nothing ran, so there is no timeline worth dumping *)
         finish_failed ~dump:false t jr ~kind:"breaker-open"
           ~message:
             (Printf.sprintf "circuit breaker open for %s; retry after %.2f s"
                (breaker_key jr.job) retry_after_s)
       | Supervisor.Breaker.Proceed | Supervisor.Breaker.Probe ->
         if not jr.started then begin
           jr.started <- true;
           journal_put t jr Journal.Running
         end;
         Obs.Metrics.incr c_quanta;
         let t0 = Obs.now () in
         let outcome = run_quantum t jr in
         jr.wall <- jr.wall +. (Obs.now () -. t0);
         jr.quanta <- jr.quanta + 1;
         (match outcome with
         | Preempt ->
           jr.preemptions <- jr.preemptions + 1;
           Obs.Metrics.incr c_preemptions;
           journal_put t jr Journal.Checkpointed;
           (match jr.stream with Some s -> Obs.Stream.suspend s | None -> ());
           Queue.add id t.queue;
           set_depth t
         | Restart msg ->
           jr.restarts <- jr.restarts + 1;
           Obs.Metrics.incr c_restarts;
           remove_ckpt jr;
           t.log
             (Printf.sprintf "serve: job %s checkpoint corrupt (%s); restarting from scratch" id msg);
           Queue.add id t.queue;
           set_depth t
         | Complete { t2_end; omega_end } -> finish_done t jr ~t2_end ~omega_end
         | Fail { kind; message } ->
           if retryable_kind kind && jr.retries < t.max_retries then retry t jr ~kind ~message
           else begin
             if retryable_kind kind && t.max_retries > 0 then Obs.Metrics.incr c_retry_exhausted;
             finish_failed t jr ~kind ~message
           end)
     end);
    Ran

let drain t =
  let rec go () =
    match run_slice t with
    | Ran -> go ()
    | Idle -> ()
    | Wait s ->
      Unix.sleepf (Float.min s 0.05);
      go ()
  in
  go ()

let abandon t =
  let rec go () =
    match Queue.take_opt t.queue with
    | None -> ()
    | Some id ->
      let jr = Hashtbl.find t.jobs id in
      finish_cancelled t jr ~kind:"aborted";
      go ()
  in
  go ();
  set_depth t

(* Graceful (SIGTERM) drain: park every still-queued job for a future
   daemon instead of finishing it.  Checkpoints stay on disk, the
   journal records [Preempted], the per-job stream gets its terminal
   record — a restart on the same spool recovers and resumes each
   parked job bit-exactly. *)
let preempt_all t =
  let rec go () =
    match Queue.take_opt t.queue with
    | None -> ()
    | Some id ->
      let jr = Hashtbl.find t.jobs id in
      journal_put t jr Journal.Preempted;
      close_stream jr ~ok:false ~error:"preempted" ();
      jr.status <- Parked;
      t.preempted_n <- t.preempted_n + 1;
      Obs.Metrics.incr c_preempted_jobs;
      Supervisor.Breaker.release t.breaker ~key:(breaker_key jr.job) ~now:(Unix.gettimeofday ());
      t.log
        (Printf.sprintf "serve: preempted %s after %d quanta%s" id jr.quanta
           (if jr.has_ckpt then " (checkpoint kept)" else ""));
      t.emit
        (Protocol.job_error ~id ~kind:"preempted"
           ~message:"daemon shutting down; job parked for a restarted daemon" ~quanta:jr.quanta ());
      go ()
  in
  go ();
  set_depth t

let shutdown t = Journal.close t.journal
