(* wampde_cli: command-line driver for the WaMPDE VCO experiments.

   Subcommands:
     orbit      unforced periodic steady state of the VCO
     envelope   WaMPDE envelope run (VCO-A or VCO-B), CSV to stdout
     transient  brute-force transient run, CSV to stdout
     quasi      quasiperiodic (periodic-BC) WaMPDE solve
     waveform   recovered 1-D waveform from an envelope run *)

open Cmdliner
module Obs = Wampde_obs

type which = A | B

(* ---------- observability flags (shared by every subcommand) ---------- *)

let metrics_arg =
  let doc = "Print a solver-work metrics table to stderr when the run finishes." in
  Arg.(value & flag & info [ "metrics" ] ~doc)

let trace_arg =
  let doc =
    "Write span/event telemetry as JSON lines to $(docv) and print a span tree to stderr."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let perfetto_arg =
  let doc =
    "Write a Chrome trace-event file to $(docv) as the run goes, closed when it ends (also \
     on a typed solver error); open it at ui.perfetto.dev or chrome://tracing.  Spans become \
     duration events (with GC/allocation attribution in their end events' args), solver \
     decisions become instant events."
  in
  Arg.(value & opt (some string) None & info [ "trace-perfetto" ] ~docv:"FILE" ~doc)

let report_arg =
  let doc =
    "Write a self-contained JSON run manifest to $(docv): CLI args, git describe, OCaml \
     version, wall/GC totals, the scoped metrics snapshot and the per-macro-step history.  \
     Render or validate it later with the $(b,report) subcommand."
  in
  Arg.(value & opt (some string) None & info [ "report" ] ~docv:"FILE" ~doc)

let fault_arg =
  let doc =
    "Arm the deterministic fault-injection harness with $(docv) (e.g. \
     $(b,linsolve@3,nan%0.05,seed=42); kinds: linsolve, diverge, nan, ckpt-trunc; an entry \
     prefixed $(i,scope)$(b,:), as in $(b,envelope.newton:nan%0.01), counts only the calls \
     inside that telemetry scope).  The \
     $(b,WAMPDE_FAULTS) environment variable arms the same schedule when this flag is \
     absent.  Injected faults must end in recovery or a typed error — use with the solver \
     metrics to audit the retry/escalation machinery."
  in
  Arg.(value & opt (some string) None & info [ "fault-inject" ] ~docv:"SPEC" ~doc)

let stream_arg =
  let doc =
    "Stream live NDJSON progress to $(docv) ($(b,-) for stderr): a start record, throttled \
     per-macro-step progress (with a smoothed-rate ETA), heartbeats, solver \
     reject/retry/escalation events, health warnings and a terminal $(b,done)/$(b,error) \
     record.  The stream is bounded and never blocks the solve."
  in
  Arg.(value & opt (some string) None & info [ "stream" ] ~docv:"FILE" ~doc)

let jobs_arg =
  let doc =
    "Run the parallel kernels (finite-difference Jacobian columns, preconditioner block \
     factorizations, structured matvec rows) on $(docv) domains.  Results are bitwise identical for \
     every $(docv).  Default: the $(b,WAMPDE_JOBS) environment variable, else 1 (serial)."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let flight_arg =
  let doc =
    "Where to write the flight-recorder dump ($(b,wampde.flightdump/1) JSON) when the run \
     dies on a typed solver error, a fault-harness trip or SIGINT/SIGTERM.  The recorder is \
     always armed; render a dump with the $(b,explain) subcommand."
  in
  Arg.(value & opt string "wampde-flight.json" & info [ "flight-dump" ] ~docv:"FILE" ~doc)

type obs_flags = {
  o_metrics : bool;
  o_trace : string option;
  o_perfetto : string option;
  o_report : string option;
  o_faults : string option;
  o_stream : string option;
  o_jobs : int option;
  o_flight : string;
}

let obs_term =
  Term.(
    const (fun o_metrics o_trace o_perfetto o_report o_faults o_stream o_jobs o_flight ->
        {
          o_metrics;
          o_trace;
          o_perfetto;
          o_report;
          o_faults;
          o_stream;
          o_jobs;
          o_flight;
        })
    $ metrics_arg $ trace_arg $ perfetto_arg $ report_arg $ fault_arg $ stream_arg
    $ jobs_arg $ flight_arg)

let open_or_die file =
  try open_out file
  with Sys_error msg ->
    Printf.eprintf "wampde_cli: cannot open output file: %s\n" msg;
    exit 1

let write_file_or_die file contents =
  let oc = open_or_die file in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc contents)

let read_file_or_die file =
  try
    let ic = open_in_bin file in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with Sys_error msg ->
    Printf.eprintf "wampde_cli: cannot read %s: %s\n" file msg;
    exit 1

(* (subcommand, dump path) of the run in flight; set by [with_obs] so
   failure paths that exit directly can still write the postmortem. *)
let flight_ctx = ref ("", "wampde-flight.json")

let flight_dump ~kind ~message =
  let cmd, path = !flight_ctx in
  match
    Obs.Flight.write ~subcommand:cmd
      ?git:(Obs.Report.git_describe ())
      ~jobs:(Par.Pool.jobs ()) ~path ~kind ~message ()
  with
  | Ok p -> Printf.eprintf "wampde_cli: flight dump written to %s (render it with 'wampde_cli explain %s')\n" p p
  | Error msg -> Printf.eprintf "wampde_cli: flight dump failed: %s\n" msg

(* Every solver failure below is typed and carries a registered
   printer: surface it as a one-line diagnostic, a flight dump and a
   nonzero exit, not a backtrace. *)
let or_die f =
  try f ()
  with
  | ( Transient.Step_failure _ | Step_control.Underflow _
    | Checkpoint.Corrupt _
    | Nonlin.Polyalg.Solve_failed _ | Wampde.Quasiperiodic.Solve_failure _ | Mpde.Solve_failure _
    | Steady.Oscillator.Nonphysical _ ) as exn ->
    flight_dump ~kind:(fst (Serve.Scheduler.classify exn)) ~message:(Printexc.to_string exn);
    Printf.eprintf "wampde_cli: %s\n" (Printexc.to_string exn);
    exit 1

(* Enable telemetry around [f] according to the observability flags:
   metrics go to a table on stderr, JSON-lines traces plus a span-tree
   summary through --trace, a Chrome trace-event file through
   --trace-perfetto (with per-span GC attribution), a run manifest
   through --report and a live NDJSON stream through --stream (the one
   live-progress channel; --stream - writes it to stderr).  With no
   flag this is a no-op wrapper.  Both trace artifacts and the tree
   read the one span sink and one event subscription as the run goes;
   nothing is kept for the end but the tree's per-path totals.  The
   close-out (artifacts, tree, manifest, metrics) also runs when the
   run ends in a typed error, before [or_die] exits.
   [--fault-inject] (or WAMPDE_FAULTS) arms the deterministic fault
   harness for the wrapped run.  [total] is the run's slow-time target,
   powering the ETA estimate of --stream. *)
let with_obs ?(cmd = "") ?total obs f =
  (* WAMPDE_JOBS seeded the pool at startup; an explicit --jobs wins *)
  (match obs.o_jobs with Some j -> Par.Pool.set_jobs j | None -> ());
  (match obs.o_faults with
   | Some spec -> (
     match Fault.arm spec with
     | Ok () -> ()
     | Error msg ->
       Printf.eprintf "wampde_cli: --fault-inject: %s\n" msg;
       exit 1)
   | None -> (
     try Fault.arm_from_env ()
     with Invalid_argument msg ->
       Printf.eprintf "wampde_cli: %s: %s\n" Fault.env_var msg;
       exit 1));
  (* flight recorder: a fresh timeline whatever the telemetry flags, so
     a typed failure, fault trip or fatal signal can dump a postmortem *)
  Obs.Flight.clear ();
  flight_ctx := (cmd, obs.o_flight);
  List.iter
    (fun (signo, name, code) ->
      try
        Sys.set_signal signo
          (Sys.Signal_handle
             (fun _ ->
               Obs.Flight.note ~kind:"signal" (name ^ " received");
               flight_dump ~kind:"signal" ~message:(name ^ " received");
               exit code))
      with Invalid_argument _ | Sys_error _ -> ())
    [ (Sys.sigint, "SIGINT", 130); (Sys.sigterm, "SIGTERM", 143) ];
  let { o_metrics = metrics; o_trace = trace; o_perfetto = perfetto; o_report = report; _ } =
    obs
  in
  let any =
    metrics || trace <> None || perfetto <> None || report <> None || obs.o_stream <> None
  in
  let write_line oc line =
    output_string oc line;
    output_char oc '\n'
  in
  if not any then or_die f
  else begin
    Obs.set_enabled true;
    let t_run0 = Obs.now () in
    let tracing = trace <> None || perfetto <> None in
    if tracing then Obs.Span.set_gc_stats true;
    let collector = Option.map (fun file -> (file, Obs.Report.collect ())) report in
    let trace_oc = Option.map open_or_die trace in
    let tree = Option.map (fun _ -> Obs.Span.tree ()) trace in
    let perfetto =
      Option.map
        (fun file ->
          let oc = open_or_die file in
          let process_name = if cmd = "" then "wampde" else "wampde " ^ cmd in
          (oc, Obs.Trace_event.start ~process_name (output_string oc)))
        perfetto
    in
    (* --trace gets each span boundary and event record as a line, the
       tree aggregates the boundaries, Perfetto gets both as events *)
    let recorder =
      if not tracing then None
      else begin
        Obs.Span.set_sink
          (Some
             (fun e ->
               Option.iter (fun oc -> write_line oc (Obs.Span.to_json e)) trace_oc;
               Option.iter (fun t -> Obs.Span.add t e) tree;
               Option.iter (fun (_, p) -> Obs.Trace_event.span p e) perfetto));
        Some
          (Obs.Events.subscribe (fun r ->
               Option.iter (fun oc -> write_line oc (Obs.Events.to_json r)) trace_oc;
               Option.iter (fun (_, p) -> Obs.Trace_event.instant p r) perfetto))
      end
    in
    let stream =
      match obs.o_stream with
      | None -> None
      | Some target ->
        let oc = if target = "-" then stderr else open_or_die target in
        let s =
          Obs.Stream.start ?total ~run:cmd ~write:(write_line oc) ~flush:(fun () -> flush oc) ()
        in
        (* A fatal signal exits from its handler, which skips the
           close-out below; [at_exit] makes the terminal record (and the
           close) unconditional, and [Stream.finish] is idempotent so
           the normal path still wins with its more precise record. *)
        at_exit (fun () ->
            Obs.Stream.finish s ~ok:false ~error:"run aborted" ();
            if target <> "-" then close_out_noerr oc);
        Some s
    in
    let close_out_all ?error () =
      Option.iter (fun s -> Obs.Stream.finish s ~ok:(error = None) ?error ()) stream;
      Option.iter Obs.Events.unsubscribe recorder;
      if tracing then begin
        Obs.Span.set_sink None;
        Obs.Span.set_gc_stats false
      end;
      Option.iter close_out trace_oc;
      Option.iter
        (fun (oc, p) ->
          Obs.Trace_event.finish p;
          close_out oc)
        perfetto;
      Option.iter (fun t -> prerr_string (Obs.Span.tree_summary t)) tree;
      (match collector with
       | Some (file, c) ->
         let steps = Obs.Report.finish c in
         write_file_or_die file
           (Obs.Report.manifest ~subcommand:cmd
              ?git:(Obs.Report.git_describe ())
              ~jobs:(Par.Pool.jobs ())
              ~wall_s:(Obs.now () -. t_run0)
              ~steps ())
       | None -> ());
      if metrics then begin
        prerr_string (Obs.Metrics.table ());
        prerr_string (Obs.Metrics.scoped_table ())
      end;
      Obs.set_enabled false
    in
    or_die @@ fun () ->
    match f () with
    | r ->
      close_out_all ();
      r
    | exception exn ->
      (* the close-out runs before or_die prints and exits *)
      close_out_all ~error:(Printexc.to_string exn) ();
      raise exn
  end

let which_conv =
  let parse = function
    | "a" | "A" | "vco-a" -> Ok A
    | "b" | "B" | "vco-b" -> Ok B
    | s -> Error (`Msg (Printf.sprintf "unknown VCO %S (use a or b)" s))
  in
  let print ppf w = Format.pp_print_string ppf (match w with A -> "a" | B -> "b") in
  Arg.conv (parse, print)

let params_of = function
  | A -> Circuit.Vco.vco_a ()
  | B -> Circuit.Vco.vco_b ()

let frozen_of = function
  | A -> Circuit.Vco.default_params ~control:(fun _ -> 1.5) ()
  | B -> Circuit.Vco.default_params ~damping:1.57 ~force0:4.0e-3 ~control:(fun _ -> 1.5) ()

let default_t_end = function A -> 60. | B -> 300.
let default_h2 = function A -> 0.4 | B -> 2.

let find_orbit ?(n1 = 25) which =
  let frozen = frozen_of which in
  Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1 ~period_hint:(1. /. 0.75)
    (Circuit.Vco.initial_state frozen)

(* Value checks for the numeric flags, so that a value the solvers
   cannot use (a zero, negative or NaN step that would hang or reverse
   the march, an even grid) is a usage error naming the flag rather
   than a hang or an uncaught exception. *)
let checked_conv base ~what ok print =
  let parse s =
    match base s with
    | Some x when ok x -> Ok x
    | _ -> Error (`Msg (Printf.sprintf "%S is not %s" s what))
  in
  Arg.conv (parse, print)

let positive_float =
  checked_conv float_of_string_opt ~what:"a positive finite number"
    (fun x -> Float.is_finite x && x > 0.)
    (fun ppf x -> Format.fprintf ppf "%g" x)

let odd_int =
  checked_conv int_of_string_opt ~what:"an odd integer >= 3"
    (fun n -> n >= 3 && n mod 2 = 1)
    Format.pp_print_int

let positive_int =
  checked_conv int_of_string_opt ~what:"an integer >= 1" (fun n -> n >= 1) Format.pp_print_int

let which_arg =
  let doc = "Which VCO: $(b,a) (Figs. 7-9) or $(b,b) (Figs. 10-12)." in
  Arg.(value & opt which_conv A & info [ "vco"; "which" ] ~docv:"A|B" ~doc)

let n1_arg =
  let doc = "Number of warped-time collocation points (odd)." in
  Arg.(value & opt odd_int 25 & info [ "n1" ] ~docv:"N" ~doc)

let t_end_arg =
  let doc = "End of the slow-time window in microseconds (default depends on the VCO)." in
  Arg.(value & opt (some positive_float) None & info [ "t-end" ] ~docv:"US" ~doc)

let h2_arg =
  let doc = "Slow time step in microseconds (default depends on the VCO)." in
  Arg.(value & opt (some positive_float) None & info [ "h2" ] ~docv:"US" ~doc)

let orbit_cmd =
  let run obs which n1 =
    with_obs ~cmd:"orbit" obs @@ fun () ->
    let orbit = find_orbit ~n1 which in
    Printf.printf "frequency: %.6f MHz\nperiod:    %.6f us\namplitude: %.4f V\n"
      orbit.Steady.Oscillator.omega
      (Steady.Oscillator.period orbit)
      (Steady.Oscillator.amplitude orbit ~component:Circuit.Vco.idx_voltage);
    Printf.printf "t1,voltage,current,gap,velocity\n";
    Array.iteri
      (fun j s ->
        Printf.printf "%.4f,%.6f,%.6f,%.6f,%.6f\n"
          (float_of_int j /. float_of_int n1)
          s.(0) s.(1) s.(2) s.(3))
      orbit.Steady.Oscillator.grid
  in
  let doc = "unforced periodic steady state (collocation with unknown frequency)" in
  Cmd.v (Cmd.info "orbit" ~doc) Term.(const run $ obs_term $ which_arg $ n1_arg)

let solver_arg =
  let doc =
    Printf.sprintf
      "Collocation linear solver: $(b,dense) (assembled Jacobian + LU), $(b,krylov) (matrix-free \
       GMRES with the DFT-diagonalized block preconditioner) or $(b,auto) (krylov once the \
       system has %d unknowns or more, dense below)."
      Linalg.Structured.default_threshold
  in
  let kind =
    Arg.enum
      [
        ("dense", Linalg.Structured.Dense);
        ("krylov", Linalg.Structured.Krylov);
        ("auto", Linalg.Structured.auto);
      ]
  in
  Arg.(value & opt kind Linalg.Structured.auto & info [ "solver" ] ~docv:"KIND" ~doc)

(* ---------- adaptive-stepping flags (envelope subcommand) ---------- *)

let rtol_arg =
  let doc = "Relative tolerance for adaptive slow-time stepping (enables the adaptive path)." in
  Arg.(value & opt (some positive_float) None & info [ "rtol" ] ~docv:"TOL" ~doc)

let atol_arg =
  let doc = "Absolute tolerance floor for adaptive stepping (default rtol / 1000)." in
  Arg.(value & opt (some positive_float) None & info [ "atol" ] ~docv:"TOL" ~doc)

let h2min_arg =
  let doc = "Smallest allowed slow step; going below it aborts the run." in
  Arg.(value & opt (some positive_float) None & info [ "h2min" ] ~docv:"US" ~doc)

let h2max_arg =
  let doc = "Largest allowed slow step." in
  Arg.(value & opt (some positive_float) None & info [ "h2max" ] ~docv:"US" ~doc)

let checkpoint_arg =
  let doc = "Write a binary checkpoint to $(docv) during the run (adaptive path only)." in
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE" ~doc)

let checkpoint_every_arg =
  let doc = "Accepted steps between checkpoint writes." in
  Arg.(value & opt positive_int 10 & info [ "checkpoint-every" ] ~docv:"N" ~doc)

let resume_arg =
  let doc = "Resume an interrupted adaptive run from the checkpoint file $(docv)." in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let envelope_cmd =
  let run obs which n1 t_end h2 solver rtol atol h2min h2max ckpt ckpt_every resume =
    let t_end = Option.value t_end ~default:(default_t_end which) in
    let h_min = Option.value h2min ~default:1e-9 in
    let h_max = Option.value h2max ~default:(t_end /. 2.) in
    if h_min > h_max then begin
      Printf.eprintf
        "wampde_cli: option '--h2min': %g exceeds the largest step %g (--h2max, default \
         t-end / 2)\n"
        h_min h_max;
      exit Cmd.Exit.cli_error
    end;
    with_obs ~cmd:"envelope" ~total:t_end obs @@ fun () ->
    let h2 = Option.value h2 ~default:(default_h2 which) in
    let orbit = find_orbit ~n1 which in
    let dae = Circuit.Vco.build (params_of which) in
    let options = Wampde.Envelope.default_options ~n1 ~solver () in
    let adaptive =
      rtol <> None || atol <> None || h2min <> None || h2max <> None || ckpt <> None
      || resume <> None
    in
    let res =
      try
        if adaptive then begin
          let rtol = Option.value rtol ~default:1e-4 in
          let control =
            Step_control.default_options ~rtol
              ~atol:(Option.value atol ~default:(rtol /. 1000.))
              ~h_min ~h_max ()
          in
          let checkpoint = Option.map (fun path -> (path, ckpt_every)) ckpt in
          Wampde.Envelope.simulate_controlled dae ~options ~control ~h2_init:h2 ?checkpoint
            ?resume ~t2_end:t_end ~init:orbit ()
        end
        else Wampde.Envelope.simulate dae ~options ~t2_end:t_end ~h2 ~init:orbit
      with
      | Step_control.Underflow { t; h } ->
        flight_dump ~kind:"step-underflow"
          ~message:(Printf.sprintf "step control gave up at t2 = %g (h2 = %g)" t h);
        Printf.eprintf
          "wampde_cli: step control gave up at t2 = %.6g us (h2 = %.3g): h2 fell below the \
           minimum or solver failures dominate the run; lower --h2, or relax --rtol or lower \
           --h2min on the adaptive path\n"
          t h;
        exit 1
      | Checkpoint.Corrupt msg ->
        flight_dump ~kind:"corrupt-checkpoint" ~message:msg;
        Printf.eprintf "wampde_cli: cannot resume: %s\n" msg;
        exit 1
    in
    let amp = Wampde.Envelope.amplitude_track res ~component:Circuit.Vco.idx_voltage in
    Printf.printf "t2_us,omega_mhz,amplitude_v,gap_um\n";
    Array.iteri
      (fun i t2 ->
        let gap = res.Wampde.Envelope.slices.(i).(0).(Circuit.Vco.idx_gap) in
        Printf.printf "%.4f,%.6f,%.6f,%.6f\n" t2 res.Wampde.Envelope.omega.(i) amp.(i) gap)
      res.Wampde.Envelope.t2
  in
  let doc =
    "WaMPDE envelope run; CSV of local frequency and amplitude vs slow time.  With any of \
     --rtol/--atol/--h2min/--h2max/--checkpoint/--resume the slow step adapts under local \
     truncation error control and the run can checkpoint and resume."
  in
  Cmd.v
    (Cmd.info "envelope" ~doc)
    Term.(
      const run $ obs_term $ which_arg $ n1_arg $ t_end_arg $ h2_arg
      $ solver_arg
      $ rtol_arg $ atol_arg $ h2min_arg $ h2max_arg $ checkpoint_arg $ checkpoint_every_arg
      $ resume_arg)

let transient_cmd =
  let pts_arg =
    let doc = "Time steps per nominal oscillation cycle." in
    Arg.(value & opt positive_int 100 & info [ "pts-per-cycle" ] ~docv:"N" ~doc)
  in
  let stride_arg =
    let doc = "Output every Nth sample." in
    Arg.(value & opt positive_int 10 & info [ "stride" ] ~docv:"N" ~doc)
  in
  let run obs which t_end pts stride =
    let t_end = Option.value t_end ~default:(default_t_end which) in
    with_obs ~cmd:"transient" ~total:t_end obs @@ fun () ->
    let orbit = find_orbit which in
    let dae = Circuit.Vco.build (params_of which) in
    let x0 = Array.init dae.Dae.dim (fun i -> orbit.Steady.Oscillator.grid.(0).(i)) in
    let traj =
      Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:t_end
        ~h:(1.333 /. float_of_int pts) x0
    in
    Printf.printf "t_us,voltage_v,gap_um\n";
    Array.iteri
      (fun i t ->
        if i mod stride = 0 then
          Printf.printf "%.6f,%.6f,%.6f\n" t
            traj.Transient.states.(i).(Circuit.Vco.idx_voltage)
            traj.Transient.states.(i).(Circuit.Vco.idx_gap))
      traj.Transient.times
  in
  let doc = "brute-force transient simulation (the paper's baseline); CSV waveform" in
  Cmd.v
    (Cmd.info "transient" ~doc)
    Term.(const run $ obs_term $ which_arg $ t_end_arg $ pts_arg $ stride_arg)

let quasi_cmd =
  let n2_arg =
    let doc = "Number of slow-time collocation slices (odd)." in
    Arg.(value & opt odd_int 15 & info [ "n2" ] ~docv:"N" ~doc)
  in
  let run obs n1 n2 solver =
    (* the guess comes from an envelope warm-up over 3 slow periods
       (t2 = 120), restarted at a halved step when its march fails *)
    let p2 = 40. in
    with_obs ~cmd:"quasi" ~total:(Wampde.Quasiperiodic.warmup_horizon ~p2) obs @@ fun () ->
    let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
    let orbit = find_orbit ~n1 A in
    let options = Wampde.Envelope.default_options ~n1 ~solver () in
    let sol = Wampde.Quasiperiodic.from_orbit dae ~options ~p2 ~n2 ~init:orbit () in
    Printf.printf "# residual %.3e, mean frequency %.6f MHz\n"
      (Wampde.Quasiperiodic.residual_norm dae ~options sol)
      (Wampde.Quasiperiodic.mean_frequency sol);
    Printf.printf "t2_us,omega_mhz\n";
    Array.iteri
      (fun m t2 -> Printf.printf "%.4f,%.6f\n" t2 sol.Wampde.Quasiperiodic.omega.(m))
      sol.Wampde.Quasiperiodic.t2
  in
  let doc = "quasiperiodic (periodic boundary conditions) WaMPDE solve of VCO-A" in
  Cmd.v
    (Cmd.info "quasi" ~doc)
    Term.(const run $ obs_term $ n1_arg $ n2_arg $ solver_arg)

let waveform_cmd =
  let per_cycle_arg =
    let doc = "Output samples per oscillation cycle." in
    Arg.(value & opt positive_int 20 & info [ "per-cycle" ] ~docv:"N" ~doc)
  in
  let run obs which n1 t_end h2 per_cycle =
    let t_end = Option.value t_end ~default:(default_t_end which) in
    with_obs ~cmd:"waveform" ~total:t_end obs @@ fun () ->
    let h2 = Option.value h2 ~default:(default_h2 which) in
    let orbit = find_orbit ~n1 which in
    let dae = Circuit.Vco.build (params_of which) in
    let options = Wampde.Envelope.default_options ~n1 () in
    let res = Wampde.Envelope.simulate dae ~options ~t2_end:t_end ~h2 ~init:orbit in
    let times, values =
      Wampde.Envelope.waveform_samples res ~component:Circuit.Vco.idx_voltage ~per_cycle
    in
    Printf.printf "t_us,voltage_v\n";
    Array.iteri (fun i t -> Printf.printf "%.6f,%.6f\n" t values.(i)) times
  in
  let doc = "recovered 1-D waveform x(t) = xhat(phi(t), t) from an envelope run" in
  Cmd.v
    (Cmd.info "waveform" ~doc)
    Term.(const run $ obs_term $ which_arg $ n1_arg $ t_end_arg $ h2_arg $ per_cycle_arg)

let deck_cmd =
  let deck_arg =
    let doc = "Netlist deck file (SPICE-flavoured; see Circuit.Parser)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DECK" ~doc)
  in
  let t_end_pos =
    let doc = "Simulation end time." in
    Arg.(value & opt positive_float 10. & info [ "t-end" ] ~docv:"T" ~doc)
  in
  let steps_arg =
    let doc = "Number of fixed time steps." in
    Arg.(value & opt positive_int 2000 & info [ "steps" ] ~docv:"N" ~doc)
  in
  let run obs deck t_end steps =
    with_obs ~cmd:"deck" ~total:t_end obs @@ fun () ->
    match Circuit.Parser.parse_file deck with
    | exception Circuit.Parser.Parse_error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" deck line message;
      exit 1
    | net ->
      let dae = Circuit.Mna.compile net in
      let x0 =
        let guess = Circuit.Mna.initial_guess net in
        let report = Dae.dc_operating_point ~x0:guess dae in
        if report.Nonlin.Newton.converged then report.Nonlin.Newton.x else guess
      in
      let traj =
        Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:t_end
          ~h:(t_end /. float_of_int steps)
          x0
      in
      Printf.printf "t";
      Array.iter (Printf.printf ",%s") dae.Dae.var_names;
      print_newline ();
      Array.iteri
        (fun i t ->
          Printf.printf "%.6g" t;
          Array.iter (Printf.printf ",%.6g") traj.Transient.states.(i);
          print_newline ())
        traj.Transient.times
  in
  let doc = "parse a SPICE-flavoured netlist deck and run a transient simulation (CSV)" in
  Cmd.v (Cmd.info "deck" ~doc) Term.(const run $ obs_term $ deck_arg $ t_end_pos $ steps_arg)

let report_cmd =
  let file_pos =
    let doc = "Run manifest written by $(b,--report) on a solver subcommand." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"REPORT" ~doc)
  in
  let check_arg =
    let doc = "Validate the manifest (schema, required fields, scoped-counter sums) and exit." in
    Arg.(value & flag & info [ "check" ] ~doc)
  in
  let run file check =
    let contents = read_file_or_die file in
    if check then
      match Obs.Report.check contents with
      | Ok () -> Printf.printf "report: %s: ok\n" file
      | Error msg ->
        Printf.eprintf "report: %s: invalid: %s\n" file msg;
        exit 1
    else
      match Obs.Report.to_markdown contents with
      | Ok md -> print_string md
      | Error msg ->
        Printf.eprintf "report: %s: invalid: %s\n" file msg;
        exit 1
  in
  let doc =
    "render a JSON run manifest (written by $(b,--report)) as a markdown summary, or validate \
     it with $(b,--check)"
  in
  Cmd.v (Cmd.info "report" ~doc) Term.(const run $ file_pos $ check_arg)

let doctor_cmd =
  let manifest_pos =
    let doc =
      "Run manifest written by $(b,--report) on a solver subcommand.  A file that fails \
       $(b,report --check) is refused with exit 1."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"MANIFEST" ~doc)
  in
  let stream_file_arg =
    let doc = "NDJSON stream written by $(b,--stream), cross-checked against the manifest." in
    Arg.(value & opt (some file) None & info [ "stream" ] ~docv:"FILE" ~doc)
  in
  let strict_arg =
    let doc = "Exit non-zero when the diagnosis contains any warning." in
    Arg.(value & flag & info [ "strict" ] ~doc)
  in
  let json_arg =
    let doc = "Emit the diagnosis as JSON instead of text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let run manifest stream strict json =
    let contents = read_file_or_die manifest in
    let stream = Option.map read_file_or_die stream in
    match Obs.Doctor.diagnose_string ?stream contents with
    | Error msg ->
      Printf.eprintf "doctor: %s: %s\n" manifest msg;
      exit 1
    | Ok findings ->
      if json then print_endline (Obs.Doctor.to_json findings)
      else print_string (Obs.Doctor.render findings);
      if strict && Obs.Doctor.has_warnings findings then exit 1
  in
  let doc =
    "diagnose a finished run from its manifest (and optionally its NDJSON stream): where the \
     time went (dominant cost scope, pool efficiency) and whether the answer can be trusted \
     (one warning per health monitor that fired, t1 warnings with a suggested n1; measured \
     facts where none fired)"
  in
  Cmd.v
    (Cmd.info "doctor" ~doc)
    Term.(const run $ manifest_pos $ stream_file_arg $ strict_arg $ json_arg)

let explain_cmd =
  let dump_pos =
    let doc =
      "Flight dump to render: the file written through $(b,--flight-dump) on a failing run, \
       or the $(b,flight) path attached to a $(b,serve) job-error record."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"DUMP" ~doc)
  in
  let run file =
    match Obs.Flight.to_postmortem (read_file_or_die file) with
    | Ok text -> print_string text
    | Error msg ->
      Printf.eprintf "explain: %s: %s\n" file msg;
      exit 1
  in
  let doc =
    "render a $(b,wampde.flightdump/1) postmortem: the failure reason, run provenance, the \
     recorded event timeline (failing event last) and doctor findings from the embedded \
     metrics snapshot"
  in
  Cmd.v (Cmd.info "explain" ~doc) Term.(const run $ dump_pos)

let serve_cmd =
  let quantum_arg =
    let doc =
      "Scheduling slice: accepted envelope macro steps before a running job is preempted \
       (checkpointed bit-exactly and requeued) so concurrent jobs advance round-robin."
    in
    Arg.(value & opt int 8 & info [ "quantum" ] ~docv:"N" ~doc)
  in
  let spool_arg =
    let doc = "Directory for preemption checkpoints (created if missing)." in
    Arg.(value & opt string "wampde-spool" & info [ "spool" ] ~docv:"DIR" ~doc)
  in
  let stall_timeout_arg =
    let doc =
      "Stall watchdog: fail a running job with a typed $(b,stalled) error when no solver \
       progress (a circuit evaluation, counted by $(b,dae.evals), or an accepted macro step) \
       is observed for $(docv) seconds ($(b,0) disables)."
    in
    Arg.(value & opt float 0. & info [ "stall-timeout" ] ~docv:"SECONDS" ~doc)
  in
  let run fault jobs quantum spool stall_timeout =
    (match jobs with Some j -> Par.Pool.set_jobs j | None -> ());
    (match fault with
    | Some spec -> (
      match Fault.arm spec with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf "wampde_cli: --fault-inject: %s\n" msg;
        exit 1)
    | None -> (
      try Fault.arm_from_env ()
      with Invalid_argument msg ->
        Printf.eprintf "wampde_cli: %s: %s\n" Fault.env_var msg;
        exit 1));
    (* SIGTERM = graceful park: the handler only flips a flag (it may
       interrupt a blocking read, which surfaces as `Nothing); the
       server loop polls it and journals queued jobs as preempted. *)
    let term_requested = ref false in
    Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> term_requested := true));
    let config =
      Serve.Server.default_config ~quantum ~spool ~stall_timeout_s:stall_timeout
        ~stop_requested:(fun () -> !term_requested)
        ()
    in
    let write line =
      print_string line;
      print_char '\n';
      flush stdout
    in
    let log line =
      prerr_string line;
      prerr_char '\n';
      flush stderr
    in
    exit (Serve.Server.run config ~read:(Serve.Server.fd_reader Unix.stdin) ~write ~log)
  in
  let doc =
    "simulation service: accept NDJSON job requests on stdin (envelope and quasiperiodic \
     solves), time-slice them round-robin via bit-exact preemption checkpoints, journal every \
     job transition for crash recovery, and stream per-job progress, run-report manifests and \
     typed errors as NDJSON on stdout"
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(
      const run $ fault_arg $ jobs_arg $ quantum_arg $ spool_arg $ stall_timeout_arg)

let () =
  let doc = "multi-time (WaMPDE) simulation of voltage-controlled oscillators" in
  let info = Cmd.info "wampde_cli" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            orbit_cmd; envelope_cmd; transient_cmd; quasi_cmd; waveform_cmd; deck_cmd; report_cmd;
            doctor_cmd; explain_cmd; serve_cmd;
          ]))
