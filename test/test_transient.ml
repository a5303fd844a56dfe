(* Tests for the DAE abstraction and transient integrators. *)
open Linalg

let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

(* Linear decay x' = -x as a DAE. *)
let decay = Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.x.(0) |]) ()

(* Undamped harmonic oscillator x'' + w^2 x = 0 in first-order form. *)
let harmonic w =
  Dae.of_ode ~dim:2
    ~rhs:(fun ~t:_ x -> [| x.(1); -.(w *. w) *. x.(0) |])
    ~drhs:(fun ~t:_ _ -> [| [| 0.; 1. |]; [| -.(w *. w); 0. |] |])
    ()

(* LC tank in charge form: q1 = C v, q2 = L i; f = (i, -v).
   Exercises a nontrivial q(.) with analytic Jacobians. *)
let lc_tank ~l ~c =
  Dae.make ~dim:2
    ~q:(fun x -> [| c *. x.(0); l *. x.(1) |])
    ~f:(fun ~t:_ x -> [| x.(1); -.x.(0) |])
    ~dq:(fun _ -> [| [| c; 0. |]; [| 0.; l |] |])
    ~df:(fun ~t:_ _ -> [| [| 0.; 1. |]; [| 0.; -0. |] |])
    ~var_names:[| "v"; "i" |]
    ()

let dae_tests =
  [
    Alcotest.test_case "consistent derivative of LC tank" `Quick (fun () ->
        let dae = lc_tank ~l:2. ~c:0.5 in
        let xdot = Dae.consistent_derivative dae ~t:0. [| 1.; 3. |] in
        (* C v' = -i, L i' = v  =>  v' = -i/C = -6, i' = v/L = 0.5 *)
        approx_tol 1e-12 "v'" (-6.) xdot.(0);
        approx_tol 1e-12 "i'" 0.5 xdot.(1));
    Alcotest.test_case "residual vanishes on consistent derivative" `Quick (fun () ->
        let dae = lc_tank ~l:1.5 ~c:0.3 in
        let x = [| 0.7; -0.2 |] in
        let xdot = Dae.consistent_derivative dae ~t:0. x in
        let r = Array.map2 ( +. ) (Mat.matvec (dae.Dae.dq x) xdot) (dae.Dae.f ~t:0. x) in
        Alcotest.(check bool) "zero" true (Vec.norm_inf r < 1e-12));
    Alcotest.test_case "dc operating point of nonlinear resistor divider" `Quick (fun () ->
        (* f(x) = (x - 5)/1k + x^3 * 1e-3 = 0 *)
        let dae =
          Dae.make ~dim:1
            ~q:(fun _ -> [| 0. |])
            ~f:(fun ~t:_ x -> [| ((x.(0) -. 5.) /. 1000.) +. (1e-3 *. (x.(0) ** 3.)) |])
            ()
        in
        let report = Dae.dc_operating_point ~x0:[| 1. |] dae in
        Alcotest.(check bool) "converged" true report.Nonlin.Newton.converged;
        let x = report.Nonlin.Newton.x.(0) in
        approx_tol 1e-9 "kcl" 0. (((x -. 5.) /. 1000.) +. (1e-3 *. (x ** 3.))));
    Alcotest.test_case "fd jacobians are generated when omitted" `Quick (fun () ->
        let dae =
          Dae.make ~dim:1 ~q:(fun x -> [| x.(0) ** 2. |]) ~f:(fun ~t:_ x -> [| sin x.(0) |]) ()
        in
        approx_tol 1e-5 "dq" 4. (dae.Dae.dq [| 2. |]).(0).(0);
        approx_tol 1e-5 "df" (cos 2.) (dae.Dae.df ~t:0. [| 2. |]).(0).(0));
  ]

let transient_tests =
  [
    Alcotest.test_case "backward euler decays monotonically" `Quick (fun () ->
        let traj = Transient.integrate decay ~method_:Transient.Backward_euler ~t0:0. ~t1:1. ~h:0.01 [| 1. |] in
        let v = Transient.component traj 0 in
        approx_tol 2e-3 "e^-1" (exp (-1.)) v.(Array.length v - 1);
        Array.iteri (fun i x -> if i > 0 then Alcotest.(check bool) "mono" true (x < v.(i - 1))) v);
    Alcotest.test_case "trapezoidal is second order on decay" `Quick (fun () ->
        let err h =
          let traj = Transient.integrate decay ~method_:Transient.Trapezoidal ~t0:0. ~t1:1. ~h [| 1. |] in
          Float.abs ((Transient.final traj).(0) -. exp (-1.))
        in
        let ratio = err 0.02 /. err 0.01 in
        Alcotest.(check bool) "ratio ~ 4" true (ratio > 3.5 && ratio < 4.5));
    Alcotest.test_case "trapezoidal preserves oscillation amplitude" `Quick (fun () ->
        let dae = harmonic two_pi in
        (* one full period with 200 steps *)
        let traj =
          Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:1. ~h:0.005 [| 1.; 0. |]
        in
        let x = Transient.final traj in
        approx_tol 1e-2 "x back to 1" 1. x.(0);
        approx_tol 5e-2 "v back to 0" 0. x.(1));
    Alcotest.test_case "LC tank oscillates at 1/(2 pi sqrt(LC))" `Quick (fun () ->
        let l = 0.045 and c = 1. in
        let dae = lc_tank ~l ~c in
        let f_expected = 1. /. (two_pi *. sqrt (l *. c)) in
        let t1 = 8. /. f_expected in
        let h = 1. /. (f_expected *. 400.) in
        let traj = Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1 ~h [| 1.; 0. |] in
        let v = Transient.component traj 0 in
        let dt = traj.Transient.times.(1) -. traj.Transient.times.(0) in
        let f_est = Fourier.Spectrum.dominant_frequency ~dt v in
        Alcotest.(check bool) "frequency" true (Float.abs (f_est -. f_expected) /. f_expected < 0.01));
    Alcotest.test_case "interpolate and resample" `Quick (fun () ->
        let traj = Transient.integrate decay ~method_:Transient.Trapezoidal ~t0:0. ~t1:1. ~h:0.001 [| 1. |] in
        approx_tol 1e-4 "midpoint" (exp (-0.5)) (Transient.interpolate traj 0 0.5);
        let r = Array.map (Transient.interpolate traj 0) [| 0.; 0.25; 1. |] in
        approx_tol 1e-4 "r0" 1. r.(0);
        approx_tol 1e-4 "r2" (exp (-1.)) r.(2));
    Alcotest.test_case "a VCO-A trapezoidal step allocates at most 100 words" `Quick (fun () ->
        (* the oscillator's fallback warm-up: 3,400 steps of 1/100 of the
           free-running period.  Newton, the Jacobian and its LU, the
           circuit's q, f, C and G and the step's closures live in one
           workspace per integration; the words left are Newton's
           report, the evaluator's context records and the stored
           states *)
        let p = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let dae = Circuit.Vco.build p and x0 = Circuit.Vco.initial_state p in
        let h = 1. /. 0.75 /. 100. and steps = 3400 in
        let w =
          Test_par.steady_words (fun () ->
              ignore
                (Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0.
                   ~t1:(float_of_int steps *. h) ~h x0))
          /. float_of_int steps
        in
        Alcotest.(check bool) (Printf.sprintf "%.0f words per step <= 100" w) true (w <= 100.));
    Alcotest.test_case "integrate equals chained Transient.theta_step, bit for bit" `Quick
      (fun () ->
        (* the VCO-B fallback warm-up of Oscillator.polish: integrate starts each
           step from the q and f of the previous solve's last residual
           pass, theta_step evaluates them afresh, so a reused value
           that differs from a fresh pass shows here *)
        let p = Circuit.Vco.vco_b () in
        let dae = Circuit.Vco.build p and x0 = Circuit.Vco.initial_state p in
        let period = 1. /. Circuit.Vco.nominal_frequency p in
        let h = period /. 100. and t1 = period *. 34. in
        List.iter
          (fun (name, method_, theta) ->
            let traj = Transient.integrate dae ~method_ ~t0:0. ~t1 ~h x0 in
            Alcotest.(check int) (name ^ ": steps") 3400 (Transient.steps traj);
            let t = ref 0. and x = ref x0 in
            for i = 1 to Transient.steps traj do
              let step = Float.min h (t1 -. !t) in
              x := Array.copy (Transient.theta_step dae ~theta ~t:!t ~h:step !x);
              t := !t +. step;
              if
                Int64.bits_of_float !t <> Int64.bits_of_float traj.Transient.times.(i)
                || Array.map Int64.bits_of_float !x
                   <> Array.map Int64.bits_of_float traj.Transient.states.(i)
              then Alcotest.failf "%s: step %d differs from the chained theta_step" name i
            done)
          [ ("trapezoidal", Transient.Trapezoidal, 0.5); ("backward Euler", Transient.Backward_euler, 1.) ]);
    Alcotest.test_case "a VCO-A trapezoidal step makes 5 circuit passes" `Quick (fun () ->
        (* one residual pass at the predictor, then a Jacobian and a
           residual pass per Newton iteration (two, one for a single
           step here; no backtracking); the step's start reuses the
           previous solve's last pass, so only the first step
           evaluates it *)
        let p = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let dae = Circuit.Vco.build p and x0 = Circuit.Vco.initial_state p in
        let h = 1. /. 0.75 /. 100. and steps = 3400 in
        let count name = Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter name) in
        let evals, iterations =
          Wampde_obs.Metrics.with_isolated (fun () ->
              Wampde_obs.set_enabled true;
              ignore
                (Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0.
                   ~t1:(float_of_int steps *. h) ~h x0);
              (count "dae.evals", count "newton.iterations"))
        in
        Alcotest.(check int) "Newton iterations" ((2 * steps) - 1) iterations;
        Alcotest.(check int) "circuit passes" (1 + steps + (2 * iterations)) evals);
    Alcotest.test_case "forced RC follows steady state" `Quick (fun () ->
        (* v' = -v + sin t; steady state (sin t - cos t)/2 *)
        let dae = Dae.of_ode ~dim:1 ~rhs:(fun ~t x -> [| sin t -. x.(0) |]) () in
        let traj = Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:30. ~h:0.01 [| 0. |] in
        let v = Transient.final traj in
        approx_tol 1e-3 "steady" ((sin 30. -. cos 30.) /. 2.) v.(0));
  ]

let prop_tests =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"linear decay never increases (BE)" ~count:20
         (make (Gen.float_range 0.001 0.2)) (fun h ->
           let traj = Transient.integrate decay ~method_:Transient.Backward_euler ~t0:0. ~t1:1. ~h [| 1. |] in
           let v = Transient.component traj 0 in
           let ok = ref true in
           Array.iteri (fun i x -> if i > 0 && x > v.(i - 1) +. 1e-14 then ok := false) v;
           !ok));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"trap energy drift is tiny for harmonic oscillator" ~count:10
         (make (Gen.float_range 1. 5.)) (fun w ->
           let dae = harmonic w in
           let t1 = 4. *. two_pi /. w in
           let h = t1 /. 4000. in
           let traj = Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1 ~h [| 1.; 0. |] in
           let x = Transient.final traj in
           let energy = ((w *. w) *. (x.(0) ** 2.)) +. (x.(1) ** 2.) in
           Float.abs (energy -. (w *. w)) /. (w *. w) < 1e-4));
  ]

let suites =
  [
    ("dae", dae_tests);
    ("transient", transient_tests);
    ("transient.properties", prop_tests);
  ]
