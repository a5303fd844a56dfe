(* Failure-injection tests: every solver must fail loudly and
   informatively, never return garbage silently. *)
open Linalg
open Testkit

let raises_failure f =
  try
    ignore (f ());
    false
  with Failure _ -> true

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

let check_failure name f = Alcotest.(check bool) name true (raises_failure f)
let check_invalid name f = Alcotest.(check bool) name true (raises_invalid f)

let tests =
  [
    Alcotest.test_case "floating node makes the circuit Jacobian singular" `Quick (fun () ->
        (* capacitor to nowhere: DC operating point has singular G *)
        let net = Circuit.Mna.create () in
        let a = Circuit.Mna.node net "a" in
        Circuit.Mna.add net (Circuit.Mna.capacitor ~label:"C" ~c:1. a Circuit.Mna.ground);
        let dae = Circuit.Mna.compile net in
        let report = Dae.dc_operating_point dae in
        Alcotest.(check bool) "not converged" false
          (report.Nonlin.Newton.converged
          && report.Nonlin.Newton.reason = Some Nonlin.Newton.Singular_jacobian));
    Alcotest.test_case "transient rejects bad steps" `Quick (fun () ->
        let dae = Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.x.(0) |]) () in
        check_invalid "h <= 0" (fun () ->
            Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:1. ~h:0. [| 1. |]);
        check_invalid "t1 < t0" (fun () ->
            Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:1. ~t1:0. ~h:0.1 [| 1. |]));
    Alcotest.test_case "consistent derivative fails on algebraic constraints" `Quick (fun () ->
        (* singular dq/dx: q = 0 row, so C xdot = -f has no solution;
           Shooting.autonomous reads xdot this way *)
        let dae =
          Dae.make ~dim:1 ~q:(fun _ -> [| 0. |]) ~f:(fun ~t:_ x -> [| x.(0) -. 1. |]) ()
        in
        check_failure "consistent_derivative" (fun () ->
            Dae.consistent_derivative dae ~t:0. [| 0. |]));
    Alcotest.test_case "oscillator solver fails on a non-oscillating system" `Quick (fun () ->
        (* pure decay never crosses zero: warm-up finds too few cycles *)
        let decay = Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.x.(0) |]) () in
        Alcotest.(check bool) "find" true
          (try
             ignore (Steady.Oscillator.find decay ~n1:15 ~period_hint:1. [| 1. |]);
             false
           with Steady.Oscillator.Nonphysical _ -> true));
    Alcotest.test_case "envelope rejects mismatched init grid" `Quick (fun () ->
        let p = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let dae = Circuit.Vco.build p in
        let orbit =
          Steady.Oscillator.find dae ~n1:25 ~period_hint:1.333 (Circuit.Vco.initial_state p)
        in
        let options = Wampde.Envelope.default_options ~n1:31 () in
        check_invalid "n1 mismatch" (fun () ->
            Wampde.Envelope.simulate dae ~options ~t2_end:1. ~h2:0.5 ~init:orbit));
    Alcotest.test_case "envelope fails loudly when the step cannot converge" `Quick (fun () ->
        (* force Newton failure with a residual tolerance no iterate can
           meet: an infinity norm of zero *)
        let p = Circuit.Vco.vco_a () in
        let dae = Circuit.Vco.build p in
        let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build p0) ~n1:25 ~period_hint:1.333
            (Circuit.Vco.initial_state p0)
        in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        let options =
          {
            options with
            Wampde.Envelope.newton =
              { options.Wampde.Envelope.newton with Nonlin.Newton.max_iterations = 1;
                Nonlin.Newton.residual_tol = 0. };
          }
        in
        (* every halving fails too: recovery gives up at the start *)
        Alcotest.(check bool) "newton budget" true
          (try
             ignore (Wampde.Envelope.simulate dae ~options ~t2_end:20. ~h2:10. ~init:orbit);
             false
           with Step_control.Underflow { t; h } -> t = 0. && h < 10.));
    Alcotest.test_case "marches reject non-positive or non-finite h2 and t2_end" `Quick
      (fun () ->
        let n1 = 15 in
        let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build p0) ~n1 ~period_hint:1.333
            (Circuit.Vco.initial_state p0)
        in
        let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
        let options = Wampde.Envelope.default_options ~n1 () in
        let control = Step_control.default_options () in
        let mpde =
          { Mpde.dae = Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.x.(0) |]) (); p1 = 0.01;
            b_fast = (fun ~t1:_ ~t2:_ -> [| 0. |]) }
        in
        let bad = [ 0.; -1.; Float.nan; Float.infinity ] in
        List.iter
          (fun v ->
            let name what = Printf.sprintf "%s = %g" what v in
            check_invalid (name "simulate h2") (fun () ->
                Wampde.Envelope.simulate dae ~options ~t2_end:1. ~h2:v ~init:orbit);
            check_invalid (name "simulate t2_end") (fun () ->
                Wampde.Envelope.simulate dae ~options ~t2_end:v ~h2:0.5 ~init:orbit);
            check_invalid (name "simulate_controlled h2_init") (fun () ->
                Wampde.Envelope.simulate_controlled dae ~options ~control ~h2_init:v ~t2_end:1.
                  ~init:orbit ());
            check_invalid (name "simulate_controlled t2_end") (fun () ->
                Wampde.Envelope.simulate_controlled dae ~options ~control ~t2_end:v ~init:orbit ());
            check_invalid (name "Mpde.simulate h2") (fun () ->
                Mpde.simulate mpde ~n1 ~t2_end:1. ~h2:v ~init:(Array.make n1 [| 0. |]));
            check_invalid (name "Mpde.simulate t2_end") (fun () ->
                Mpde.simulate mpde ~n1 ~t2_end:v ~h2:0.5 ~init:(Array.make n1 [| 0. |])))
          bad);
    Alcotest.test_case "a fixed-step envelope halves a failed step and completes" `Quick
      (fun () ->
        (* without the rescue cascade the chord iteration cannot take
           the step from t2 = 90 to 120, nor its half: the march takes
           it at h2 / 4 and grows back toward h2 *)
        let n1 = 15 in
        let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build p0) ~n1 ~period_hint:(1. /. 0.75)
            (Circuit.Vco.initial_state p0)
        in
        let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
        let options = Wampde.Envelope.default_options ~n1 ~rescue:false () in
        let res, retried =
          Wampde_obs.Metrics.with_isolated (fun () ->
              Wampde_obs.set_enabled true;
              let res = Wampde.Envelope.simulate dae ~options ~t2_end:120. ~h2:30. ~init:orbit in
              (res, Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter "step.retried")))
        in
        Alcotest.(check bool) "step.retried >= 1" true (retried >= 1);
        Alcotest.(check (array (float 0.))) "t2 grid" [| 0.; 30.; 60.; 90.; 97.5; 112.5; 120. |]
          res.Wampde.Envelope.t2);
    Alcotest.test_case "quasiperiodic rejects even grids" `Quick (fun () ->
        let p = Circuit.Vco.vco_a () in
        let dae = Circuit.Vco.build p in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        let fake =
          {
            Wampde.Quasiperiodic.p2 = 40.;
            t2 = [| 0. |];
            omega = [| 0.75 |];
            slices = Array.make 10 (Array.make 25 (Array.make 4 0.));
          }
        in
        check_invalid "even n2" (fun () ->
            Wampde.Quasiperiodic.solve dae ~options ~p2:40. ~n2:10 ~guess:fake ());
        (* every slice is checked, not just the first, and so is omega *)
        let rejects what expected slices omegas =
          let guess = { fake with Wampde.Quasiperiodic.slices; omega = Array.make omegas 0.75 } in
          match Wampde.Quasiperiodic.solve dae ~options ~p2:40. ~n2:3 ~guess () with
          | _ -> Alcotest.failf "%s: expected Invalid_argument" what
          | exception Invalid_argument msg ->
            Alcotest.(check string) what ("Quasiperiodic.solve: expected " ^ expected) msg
        in
        let grid dim = Array.make 25 (Array.make dim 0.) in
        let states = "25 states of dimension 4" and counts = "3 slices and 3 omegas" in
        rejects "5-component states in slice 1" states [| grid 4; grid 5; grid 4 |] 3;
        rejects "5 omegas" counts (Array.make 3 (grid 4)) 5;
        rejects "both" counts [| grid 4; grid 5; grid 4 |] 5);
    Alcotest.test_case "quasiperiodic Newton failures are typed, NaN included" `Quick (fun () ->
        let p = Circuit.Vco.vco_a () in
        let dae = Circuit.Vco.build p in
        let n1 = 9 and n2 = 3 in
        let options = Wampde.Envelope.default_options ~n1 () in
        let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build p0) ~n1 ~period_hint:1.333
            (Circuit.Vco.initial_state p0)
        in
        let guess grid =
          {
            Wampde.Quasiperiodic.p2 = 40.;
            t2 = Array.make n2 0.;
            omega = Array.make n2 orbit.Steady.Oscillator.omega;
            slices = Array.make n2 grid;
          }
        in
        let failure ?max_iterations grid =
          match
            Wampde.Quasiperiodic.solve dae ?max_iterations ~options ~p2:40. ~n2
              ~guess:(guess grid) ()
          with
          | _ -> None
          | exception Wampde.Quasiperiodic.Solve_failure report -> Some report
        in
        (match failure (Array.make n1 (Array.make 4 Float.nan)) with
         | Some ({ Nonlin.Newton.reason = Some Nonlin.Newton.Non_finite_residual; iterations = 0; _ }
                 as report) ->
           let shown = Printexc.to_string (Wampde.Quasiperiodic.Solve_failure report) in
           Alcotest.(check string) "printer" "Wampde.Quasiperiodic.Solve_failure"
             (String.sub shown 0 (String.index shown ':'))
         | _ -> Alcotest.fail "a NaN guess must raise Solve_failure (non-finite residual)");
        (* damped Newton fails, escalates once to trust region, which
           fails too: the cascade ends exhausted *)
        let count name = Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter name) in
        match
          Wampde_obs.Metrics.with_isolated (fun () ->
              Wampde_obs.set_enabled true;
              let r = failure ~max_iterations:1 orbit.Steady.Oscillator.grid in
              (r, count "newton.strategy.failed", count "newton.strategy.escalations"))
        with
        | Some { Nonlin.Newton.converged = false; iterations; _ }, failed, escalations ->
          Alcotest.(check bool) "at most one iteration" true (iterations <= 1);
          Alcotest.(check int) "newton.strategy.failed" 1 failed;
          Alcotest.(check int) "newton.strategy.escalations" 1 escalations
        | _ -> Alcotest.fail "max_iterations:1 must raise Solve_failure");
    Alcotest.test_case "warp rejects zero or negative rates" `Quick (fun () ->
        check_invalid "zero" (fun () ->
            Sigproc.Warp.make ~t2:[| 0.; 1. |] ~omega:[| 1.; 0. |] ~slices:(Testkit.cos_slices 2) ());
        check_invalid "length mismatch" (fun () ->
            Sigproc.Warp.make ~t2:[| 0.; 1. |] ~omega:[| 1. |] ~slices:(Testkit.cos_slices 2) ()));
    Alcotest.test_case "gmres reports non-convergence honestly" `Quick (fun () ->
        (* one iteration budget on a hard system *)
        let n = 30 in
        let a = Mat.init n n (fun i j -> 1. /. (1. +. float_of_int (abs (i - j)))) in
        let b = Vec.init n (fun i -> float_of_int (i mod 2)) in
        let r = Gmres.solve ~matvec:(fun v dst -> Mat.matvec_into a v ~dst) ~restart:2 ~max_iter:2 ~tol:1e-14 b in
        Alcotest.(check bool) "flagged" false r.Gmres.converged);
    Alcotest.test_case "parser failures carry context" `Quick (fun () ->
        Alcotest.(check bool) "line 3" true
          (try
             ignore
               (Testkit.parse_deck "R1 a 0 1\nC1 a 0 1n\nL1 a\n");
             false
           with Circuit.Parser.Parse_error { line = 3; _ } -> true));
    Alcotest.test_case "lu surfaces singularity, not garbage" `Quick (fun () ->
        let singular = [| [| 1.; 2.; 3. |]; [| 2.; 4.; 6. |]; [| 0.; 1.; 1. |] |] in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Lu.factor singular);
             false
           with Lu.Singular _ -> true));
  ]

let suites = [ ("failure_injection", tests) ]
