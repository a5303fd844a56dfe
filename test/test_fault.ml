(* Tests for the deterministic fault-injection harness: spec parsing,
   firing semantics, seeded reproducibility, and end-to-end solver
   hardening — every injected fault must end in recovery or a typed
   error, never an untyped [Failure] with a backtrace. *)

module Obs = Wampde_obs

let spec_tests =
  [
    Alcotest.test_case "valid specs parse" `Quick (fun () ->
        List.iter
          (fun spec ->
            match Fault.with_armed "" (fun () -> Fault.arm spec) with
            | Ok () -> ()
            | Error msg -> Alcotest.fail (spec ^ ": " ^ msg))
          [
            "linsolve@3";
            "nan%0.05";
            "diverge@1,ckpt-trunc@2";
            "seed=42,linsolve%0.5";
            "stall@1,stall=0.5";
            "stall%0.2";
            "journal-trunc@1";
            "";
          ]);
    Alcotest.test_case "malformed specs are rejected" `Quick (fun () ->
        List.iter
          (fun spec ->
            match Fault.with_armed "" (fun () -> Fault.arm spec) with
            | Ok () -> Alcotest.fail (spec ^ ": expected Error")
            | Error _ -> ())
          [ "bogus@1"; "linsolve@x"; "nan%1.5"; "nan%-0.1"; "seed=abc"; "linsolve"; "stall=-1"; "stall=abc" ]);
    Alcotest.test_case "kind@N fires exactly once, on the Nth call" `Quick (fun () ->
        Fault.with_armed "nan@3" (fun () ->
            let fired =
              List.init 5 (fun _ -> Fault.fire Fault.Nan_residual)
            in
            Alcotest.(check (list bool)) "pattern" [ false; false; true; false; false ] fired;
            Alcotest.(check int) "injected" 1 (Fault.injected Fault.Nan_residual);
            (* other kinds are untouched *)
            Alcotest.(check bool) "other kind" false (Fault.fire Fault.Linear_solve);
            Alcotest.(check int) "other injected" 0 (Fault.injected Fault.Linear_solve)));
    Alcotest.test_case "scope:kind@N counts only the calls in that scope" `Quick (fun () ->
        List.iter
          (fun (spec, ok) ->
            Alcotest.(check bool) spec ok
              (Result.is_ok (Fault.with_armed "" (fun () -> Fault.arm spec))))
          [
            ("quasiperiodic:linsolve@1,quasiperiodic:nan@2", true);
            ("envelope.newton:linsolve%0.02,nan%0.01,seed=1", true);
            (":nan@1", false);
            ("oscillator:bogus@1", false);
            ("oscillator:nan@0", false);
            ("oscillator:seed=3", false);
          ];
        Fault.with_armed "inner:nan@2,linsolve@2" (fun () ->
            let fire scope kind = Obs.Scope.with_scope scope (fun () -> Fault.fire kind) in
            let fired =
              List.map (fun scope -> fire scope Fault.Nan_residual)
                [ "outer"; "inner"; "outer"; "outer"; "inner"; "inner" ]
            in
            Alcotest.(check (list bool)) "the second call inside inner"
              [ false; false; false; false; true; false ] fired;
            (* an unscoped entry still counts every call *)
            let first = fire "outer" Fault.Linear_solve in
            let second = fire "inner" Fault.Linear_solve in
            Alcotest.(check (list bool)) "unscoped" [ false; true ] [ first; second ]));
    Alcotest.test_case "disarmed probes are free and uncounted" `Quick (fun () ->
        Fault.disarm ();
        Alcotest.(check bool) "not armed" false (Fault.armed ());
        Alcotest.(check bool) "never fires" false (Fault.fire Fault.Linear_solve);
        (* put the ambient (CI fault-sweep) schedule back *)
        Fault.arm_from_env ());
    Alcotest.test_case "probabilistic schedules are seed-reproducible" `Quick (fun () ->
        let draw () =
          Fault.with_armed "seed=7,linsolve%0.3" (fun () ->
              List.init 200 (fun _ -> Fault.fire Fault.Linear_solve))
        in
        let a = draw () and b = draw () in
        Alcotest.(check (list bool)) "same seed, same sequence" a b;
        Alcotest.(check bool) "some fired" true (List.exists Fun.id a);
        Alcotest.(check bool) "not all fired" true (List.exists not a);
        let c =
          Fault.with_armed "seed=8,linsolve%0.3" (fun () ->
              List.init 200 (fun _ -> Fault.fire Fault.Linear_solve))
        in
        Alcotest.(check bool) "different seed differs" true (a <> c));
    Alcotest.test_case "with_armed restores the previous schedule" `Quick (fun () ->
        (* the ambient state may itself be armed (CI fault sweep), so
           compare against it rather than assuming disarmed *)
        let was_armed = Fault.armed () in
        Fault.with_armed "nan@1" (fun () ->
            Fault.with_armed "linsolve@1" (fun () ->
                Alcotest.(check bool) "inner" true (Fault.fire Fault.Linear_solve));
            (* back to the outer schedule with its own counters *)
            Alcotest.(check bool) "outer" true (Fault.fire Fault.Nan_residual));
        Alcotest.(check bool) "ambient restored" was_armed (Fault.armed ()));
    Alcotest.test_case "stall=S wedges maybe_stall for S seconds when fired" `Quick (fun () ->
        Fault.with_armed "stall@1,stall=0.05" (fun () ->
            let t0 = Unix.gettimeofday () in
            Fault.maybe_stall ();
            let slept = Unix.gettimeofday () -. t0 in
            Alcotest.(check bool) "first probe sleeps the configured 0.05 s" true
              (slept >= 0.04 && slept < 0.2);
            let t1 = Unix.gettimeofday () in
            Fault.maybe_stall ();
            Alcotest.(check bool) "single-shot: second probe is free" true
              (Unix.gettimeofday () -. t1 < 0.04);
            Alcotest.(check int) "injected" 1 (Fault.injected Fault.Solver_stall)));
    Alcotest.test_case "stall duration defaults sanely when unset" `Quick (fun () ->
        Fault.with_armed "stall@1" (fun () ->
            let t0 = Unix.gettimeofday () in
            Fault.maybe_stall ();
            Alcotest.(check bool) "positive default" true (Unix.gettimeofday () -. t0 >= 0.1));
        Fault.with_armed "nan@1" (fun () ->
            (* no stall scheduled: the probe must not sleep *)
            let t0 = Unix.gettimeofday () in
            Fault.maybe_stall ();
            Alcotest.(check bool) "no sleep" true (Unix.gettimeofday () -. t0 < 0.04)));
  ]

(* -- end-to-end: faults against the adaptive envelope integrator -- *)

let tmp_path name = Filename.concat (Filename.get_temp_dir_name ()) name

let envelope_setup () =
  let n1 = 15 in
  let frozen = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
  let orbit =
    Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1 ~period_hint:(1. /. 0.75)
      (Circuit.Vco.initial_state frozen)
  in
  let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
  let options = Wampde.Envelope.default_options ~n1 () in
  let control = Step_control.default_options ~rtol:1e-4 ~atol:1e-7 () in
  (dae, options, control, orbit)

(* Outcomes we accept from a faulted run: clean completion (the
   retry/rescue machinery absorbed the fault) or a typed error.  An
   untyped [Failure] — a raw backtrace for the user — fails the test.
   Injection counts are sampled inside [with_armed] (it restores the
   previous schedule's counters on exit). *)
let run_faulted ~spec ~dae ~options ~control ~orbit =
  Fault.with_armed spec (fun () ->
      let outcome =
        match
          Wampde.Envelope.simulate_controlled dae ~options ~control ~h2_init:0.5 ~t2_end:3.
            ~init:orbit ()
        with
        | _ -> `Recovered
        | exception Step_control.Underflow _ -> `Typed "underflow"
        | exception Checkpoint.Corrupt _ -> `Typed "corrupt"
        | exception Nonlin.Polyalg.Solve_failed _ -> `Typed "solve_failed"
      in
      let injected =
        Fault.injected Fault.Linear_solve
        + Fault.injected Fault.Newton_diverge
        + Fault.injected Fault.Nan_residual
      in
      (outcome, injected))

let fault_spec_gen =
  QCheck.Gen.(
    let kind = oneofl [ "linsolve"; "diverge"; "nan" ] in
    let entry =
      oneof
        [
          map2 (fun k n -> Printf.sprintf "%s@%d" k n) kind (int_range 1 40);
          map2 (fun k p -> Printf.sprintf "%s%%%.2f" k p) kind (float_range 0.01 0.25);
        ]
    in
    map2
      (fun seed entries -> Printf.sprintf "seed=%d,%s" seed (String.concat "," entries))
      (int_range 1 1000)
      (list_size (int_range 1 3) entry))

let envelope_tests =
  [
    Alcotest.test_case "single linear-solve fault is retried away" `Quick (fun () ->
        let dae, options, control, orbit = envelope_setup () in
        (match run_faulted ~spec:"linsolve@2" ~dae ~options ~control ~orbit with
        | `Recovered, injected ->
          Alcotest.(check bool) "fault fired" true (injected >= 1)
        | `Typed what, _ -> Alcotest.fail ("expected recovery, got typed " ^ what)));
    Alcotest.test_case "forced divergence and NaN contamination are absorbed" `Quick
      (fun () ->
        let dae, options, control, orbit = envelope_setup () in
        List.iter
          (fun spec ->
            match run_faulted ~spec ~dae ~options ~control ~orbit with
            | `Recovered, injected ->
              Alcotest.(check bool) (spec ^ " fired") true (injected >= 1)
            | `Typed what, _ ->
              Alcotest.fail (spec ^ ": expected recovery, got typed " ^ what))
          [ "diverge@2"; "nan@2" ]);
    Alcotest.test_case "persistent faults surface as a typed error" `Quick (fun () ->
        let dae, options, control, orbit = envelope_setup () in
        let options = { options with Wampde.Envelope.rescue = false } in
        match run_faulted ~spec:"linsolve%1" ~dae ~options ~control ~orbit with
        | `Recovered, _ -> Alcotest.fail "a 100% fault rate cannot be recovered"
        | `Typed _, _ -> ());
    Alcotest.test_case "a chord failure that trust region rescues is no step reject" `Quick
      (fun () ->
        (* linear-solve faults make the chord lose steps that the
           rescue then solves: only a step whose rescue fails too is a
           "newton" reject, which the controller retries, so rejects,
           envelope.rejects and retries agree *)
        let dae, options, control, orbit = envelope_setup () in
        let count name = Obs.Metrics.count (Obs.Metrics.counter name) in
        let rejects = ref 0 in
        let sub =
          Obs.Events.subscribe (fun r ->
              match r.Obs.Events.event with
              | Obs.Events.Step_reject { reason = "newton"; _ } -> incr rejects
              | _ -> ())
        in
        Fun.protect ~finally:(fun () -> Obs.Events.unsubscribe sub) @@ fun () ->
        Obs.Metrics.with_isolated (fun () ->
            Obs.set_enabled true;
            (match run_faulted ~spec:"seed=3,linsolve%0.05" ~dae ~options ~control ~orbit with
            | `Recovered, _ -> ()
            | `Typed what, _ -> Alcotest.fail ("expected recovery, got typed " ^ what));
            Alcotest.(check bool) "some steps rescued" true (count "envelope.rescues" > 0);
            Alcotest.(check int) "reject events" (count "envelope.rejects") !rejects;
            Alcotest.(check int) "retries" (count "step.retried") !rejects));
    Alcotest.test_case "a fault storm that crawls ends in a typed underflow" `Quick (fun () ->
        (* at these NaN rates accepts interleave with failures, so neither
           h_min nor max_failures ends the march; the crawl give-up must,
           well within the bound (about 0.4 s on a 2-vCPU host) *)
        let dae, options, control, orbit = envelope_setup () in
        let bound_s = 30. in
        let t0 = Unix.gettimeofday () in
        let on_accept ~t2 ~omega:_ =
          if Unix.gettimeofday () -. t0 > bound_s then
            Alcotest.failf "still marching at t2 = %g after %.0f s" t2 bound_s
        in
        Fault.with_armed "seed=720,nan%0.24,nan%0.11" (fun () ->
            match
              Wampde.Envelope.simulate_controlled dae ~options ~control ~h2_init:0.5 ~t2_end:3.
                ~on_accept ~init:orbit ()
            with
            | _ -> Alcotest.fail "expected the crawl to end in Step_control.Underflow"
            | exception Step_control.Underflow _ -> ()));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:8 ~name:"random fault schedules: recovery or typed error"
         (QCheck.make ~print:Fun.id fault_spec_gen)
         (fun spec ->
           let dae, options, control, orbit = envelope_setup () in
           match run_faulted ~spec ~dae ~options ~control ~orbit with
           | (`Recovered | `Typed _), _ -> true
           | exception _ -> false));
    Alcotest.test_case "truncated checkpoint is caught on load" `Quick (fun () ->
        let path = tmp_path "fault_ckpt_trunc.bin" in
        Fault.with_armed "ckpt-trunc@1" (fun () ->
            Checkpoint.save ~path [ ("t2", Checkpoint.Scalar 1.5) ];
            Alcotest.(check int) "fired" 1 (Fault.injected Fault.Checkpoint_trunc));
        Alcotest.(check bool) "load raises Corrupt" true
          (try
             ignore (Checkpoint.load ~path);
             false
           with Checkpoint.Corrupt _ -> true);
        Sys.remove path);
  ]

let suites = [ ("fault", spec_tests); ("fault_envelope", envelope_tests) ]
