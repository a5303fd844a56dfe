(* Tests for periodic steady-state solvers: autonomous oscillator
   collocation and shooting. *)
open Testkit
open Circuit

let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

(* Van der Pol oscillator with strength mu. *)
let vdp mu =
  Dae.of_ode ~dim:2
    ~rhs:(fun ~t:_ x -> [| x.(1); (mu *. (1. -. (x.(0) *. x.(0))) *. x.(1)) -. x.(0) |])
    ()

let oscillator_tests =
  [
    Alcotest.test_case "van der Pol frequency matches perturbation theory" `Quick (fun () ->
        let mu = 0.3 in
        let orbit = Steady.Oscillator.find (vdp mu) ~n1:31 ~period_hint:6.3 [| 2.; 0. |] in
        (* T = 2 pi (1 + mu^2/16 + O(mu^4)) *)
        let f_expected = 1. /. (two_pi *. (1. +. (mu *. mu /. 16.))) in
        approx_tol 2e-4 "frequency" f_expected orbit.Steady.Oscillator.omega;
        approx_tol 5e-3 "amplitude ~ 2" 2. (Steady.Oscillator.amplitude orbit ~component:0));
    Alcotest.test_case "phase condition holds: component 0 peaks at t1 = 0" `Quick (fun () ->
        let orbit = Steady.Oscillator.find (vdp 0.5) ~n1:31 ~period_hint:6.3 [| 2.; 0. |] in
        let x0 = Array.map (fun s -> s.(0)) orbit.Steady.Oscillator.grid in
        let d = Fourier.Series.diff_matrix 31 in
        let deriv0 = Vec.dot d.(0) x0 in
        approx_tol 1e-7 "derivative zero" 0. deriv0;
        (* and it is a maximum: value at 0 >= neighbours *)
        Alcotest.(check bool) "max" true (x0.(0) >= x0.(1) && x0.(0) >= x0.(30)));
    Alcotest.test_case "collocation and shooting agree on vdp period" `Quick (fun () ->
        let dae = vdp 1.0 in
        let orbit = Steady.Oscillator.find dae ~n1:41 ~period_hint:6.6 [| 2.; 0. |] in
        let sh =
          Steady.Shooting.autonomous dae ~steps_per_period:800 ~period_guess:6.6 [| 2.; 0. |]
        in
        approx_tol 2e-3 "period" sh.Steady.Shooting.period (Steady.Oscillator.period orbit));
    Alcotest.test_case "unforced VCO collocation at 0.748 MHz" `Quick (fun () ->
        let p = Vco.default_params ~control:(fun _ -> 1.5) () in
        let dae = Vco.build p in
        let orbit =
          Steady.Oscillator.find dae ~n1:25 ~period_hint:1.333 (Vco.initial_state p)
        in
        approx_tol 2e-3 "omega" 0.748 orbit.Steady.Oscillator.omega;
        approx_tol 2e-2 "amplitude" 2. (Steady.Oscillator.amplitude orbit ~component:0));
    Alcotest.test_case "eval reproduces transient after warmup" `Quick (fun () ->
        let dae = vdp 0.6 in
        let orbit = Steady.Oscillator.find dae ~n1:31 ~period_hint:6.3 [| 2.; 0. |] in
        (* steady-state waveform should satisfy the ODE: check the residual
           of the grid's trigonometric interpolant at a few phases *)
        let eval ~component t =
          Fourier.Series.interp
            (Array.map (fun s -> s.(component)) orbit.Steady.Oscillator.grid)
            ~period:1. (orbit.Steady.Oscillator.omega *. t)
        in
        let h = 1e-5 in
        for k = 0 to 5 do
          let t = 0.7 *. float_of_int k in
          let x = eval ~component:0 t in
          let v = eval ~component:1 t in
          let dx =
            (eval ~component:0 (t +. h)
            -. eval ~component:0 (t -. h))
            /. (2. *. h)
          in
          approx_tol 1e-3 "x' = v" v dx;
          ignore x
        done);
    Alcotest.test_case "one settle polishes to find's orbit at every n1, bitwise" `Quick
      (fun () ->
        let check_circuit name p n1s =
          let dae = Vco.build p and x0 = Vco.initial_state p in
          let settled = Steady.Oscillator.settle dae ~period_hint:(1. /. 0.75) x0 in
          List.iter
            (fun n1 ->
              let polished = Steady.Oscillator.polish dae ~n1 settled in
              let found = Steady.Oscillator.find dae ~n1 ~period_hint:(1. /. 0.75) x0 in
              Alcotest.(check string)
                (Printf.sprintf "%s n1 = %d" name n1)
                (Marshal.to_string found [])
                (Marshal.to_string polished []))
            n1s
        in
        check_circuit "VCO-A" (Vco.default_params ~control:(fun _ -> 1.5) ()) [ 15; 17; 21; 25 ];
        check_circuit "VCO-B"
          (Vco.default_params ~damping:1.57 ~force0:4.0e-3 ~control:(fun _ -> 1.5) ())
          [ 15 ]);
    Alcotest.test_case "find's orbit does not depend on the warm-up" `Quick (fun () ->
        (* polished to 1e-12, the orbit from the 8-period warm-up is the
           one from the 34-period warm-up the fallback runs *)
        let check name dae ~n1 ~period_hint x0 =
          let found = Steady.Oscillator.find dae ~n1 ~period_hint x0 in
          let long =
            Steady.Oscillator.polish_long dae ~n1 (Steady.Oscillator.settle dae ~period_hint x0)
          in
          let close what a b =
            Alcotest.(check bool)
              (Printf.sprintf "%s n1 = %d: %s %.17g vs %.17g" name n1 what a b)
              true
              (Float.abs (a -. b) <= 1e-13 *. Float.abs b)
          in
          close "omega" found.Steady.Oscillator.omega long.Steady.Oscillator.omega;
          close "amplitude"
            (Steady.Oscillator.amplitude found ~component:0)
            (Steady.Oscillator.amplitude long ~component:0)
        in
        let vco p n1 = check "VCO" (Vco.build p) ~n1 ~period_hint:(1. /. 0.75) (Vco.initial_state p) in
        let vco_a = Vco.default_params ~control:(fun _ -> 1.5) () in
        vco vco_a 15;
        vco vco_a 41;
        vco (Vco.default_params ~damping:1.57 ~force0:4.0e-3 ~control:(fun _ -> 1.5) ()) 25;
        check "van der Pol" (vdp 0.3) ~n1:31 ~period_hint:6.3 [| 2.; 0. |];
        let diode = Diode_vco.default_params ~control:(fun _ -> 3.) () in
        check "diode VCO" (Diode_vco.build diode) ~n1:31 ~period_hint:1.0
          (Diode_vco.initial_state diode ~at:0.));
    Alcotest.test_case "two domains share one settle's fallback warm-up" `Quick (fun () ->
        (* the unstable van der Pol cycle is not shown stable, so each
           polish runs the memoized 34-period warm-up; forcing it from
           two domains at once must neither raise nor change the orbit *)
        let dae = vdp (-0.05) in
        let settled () = Steady.Oscillator.settle dae ~period_hint:6.3 [| 2.; 0. |] in
        let polish settled n1 () = Steady.Oscillator.polish dae ~n1 settled in
        let expected = List.map (fun n1 -> polish (settled ()) n1 ()) [ 15; 31 ] in
        let shared = settled () in
        let got =
          let d = Domain.spawn (polish shared 31) in
          let first = polish shared 15 () in
          [ first; Domain.join d ]
        in
        Alcotest.(check (list string)) "orbits, bitwise"
          (List.map (fun o -> Marshal.to_string o []) expected)
          (List.map (fun o -> Marshal.to_string o []) got));
  ]

let quench_tests =
  [
    Alcotest.test_case "a quenched orbit raises Nonphysical; the unstable cycle does not" `Quick
      (fun () ->
        (* mu < 0 damps the equilibrium: from [2; 0] the warm-up still
           crosses zero often enough at mu = -0.1 and -0.2, but Newton
           converges onto the equilibrium, where omega is undetermined;
           at mu = -0.05 it finds the (unstable) amplitude-2 cycle *)
        let find mu n1 = Steady.Oscillator.find (vdp mu) ~n1 ~period_hint:6.3 [| 2.; 0. |] in
        List.iter
          (fun n1 ->
            List.iter
              (fun mu ->
                match find mu n1 with
                | orbit ->
                  Alcotest.failf "mu = %g, n1 = %d: returned omega %g, amplitude %g" mu n1
                    orbit.Steady.Oscillator.omega
                    (Steady.Oscillator.amplitude orbit ~component:0)
                | exception Steady.Oscillator.Nonphysical msg ->
                  Alcotest.(check bool)
                    (Printf.sprintf "mu = %g, n1 = %d names the amplitude: %s" mu n1 msg)
                    true
                    (Str.string_match (Str.regexp ".*amplitude") msg 0))
              [ -0.1; -0.2 ];
            approx_tol 3e-2
              (Printf.sprintf "mu = -0.05, n1 = %d: amplitude 2" n1)
              2.
              (Steady.Oscillator.amplitude (find (-0.05) n1) ~component:0))
          [ 15; 31; 65 ]);
    Alcotest.test_case "a time-reversed orbit at negative omega raises Nonphysical" `Quick
      (fun () ->
        (* the grid reversed in t1 with omega negated solves eqs.
           (16)+(20) too: the same waveform run backwards.  The envelope
           (fixed and controlled) and the quasiperiodic solve converge on
           it; each must refuse it at the first step or slice, naming t2
           and omega *)
        let n1 = 31 in
        let dae = vdp 0.3 in
        let orbit = Steady.Oscillator.find dae ~n1 ~period_hint:6.3 [| 2.; 0. |] in
        let grid = orbit.Steady.Oscillator.grid in
        let omega = -.orbit.Steady.Oscillator.omega in
        let reversed =
          { Steady.Oscillator.omega; grid = Array.init n1 (fun j -> grid.((n1 - j) mod n1)) }
        in
        let options = Wampde.Envelope.default_options ~n1 () in
        let refused what at f =
          match f () with
          | (_ : unit) -> Alcotest.failf "%s returned normally" what
          | exception Steady.Oscillator.Nonphysical msg ->
            let expected = Printf.sprintf "omega = %g at t2 = %g, not positive" omega at in
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S names %S" what msg expected)
              true
              (Str.string_match (Str.regexp (".*" ^ Str.quote expected)) msg 0)
        in
        approx_tol 1e-6 "the reversed orbit's omega" (-0.158267) omega;
        refused "simulate" 1. (fun () ->
            ignore (Wampde.Envelope.simulate dae ~options ~t2_end:20. ~h2:1. ~init:reversed));
        refused "simulate_controlled" 0.4 (fun () ->
            ignore
              (Wampde.Envelope.simulate_controlled dae ~options
                 ~control:(Step_control.default_options ~rtol:1e-4 ())
                 ~t2_end:20. ~init:reversed ()));
        let guess =
          {
            Wampde.Quasiperiodic.p2 = 10.;
            t2 = [| 0.; 10. /. 3.; 20. /. 3. |];
            omega = Array.make 3 omega;
            slices = Array.make 3 reversed.Steady.Oscillator.grid;
          }
        in
        refused "quasiperiodic" 0. (fun () ->
            ignore (Wampde.Quasiperiodic.solve dae ~options ~p2:10. ~n2:3 ~guess ())));
  ]

(* The Hopf normal form (Stuart-Landau) oscillator with a growth rate
   mu(t2): a cycle of radius sqrt mu at frequency 1 / (2 pi) while
   mu > 0, and a swing that decays like exp (mu t2) once mu < 0, at the
   same frequency.  A van der Pol oscillator is no quench model: at
   mu < 0 its cycle is unstable, so the march leaves it, and omega
   turns negative (the omega check's error) before the swing shrinks. *)
let hopf mu =
  Dae.of_ode ~dim:2
    ~rhs:(fun ~t x ->
      let r2 = (x.(0) *. x.(0)) +. (x.(1) *. x.(1)) in
      [| (mu t *. x.(0)) -. x.(1) -. (x.(0) *. r2); x.(0) +. (mu t *. x.(1)) -. (x.(1) *. r2) |])
    ()

(* its cycle at mu = 0.25 on 15 points, radius 0.5 *)
let hopf_orbit () =
  Steady.Oscillator.find (hopf (fun _ -> 0.25)) ~n1:15 ~period_hint:6.3 [| 0.5; 0. |]

let refinements () =
  Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter "quasiperiodic.refinements")

let quench_floor_tests =
  [
    Alcotest.test_case "an oscillation that dies in t2 ends in a typed quench" `Quick (fun () ->
        (* mu(t2) = 0.25 - 0.05 t2 turns negative at t2 = 5: the swing of
           0.5 falls below 1e-3 of itself near t2 = 21 while omega stays
           1 / (2 pi).  Without the floor the controlled march returns
           at t2 = 60 with a swing of 4e-11, and the fixed one runs on
           until omega turns negative past t2 = 40.  Periodic mu(t2) =
           -0.3 + 0.55 cos (2 pi t2 / 40) has only the quenched steady
           state; from the orbit repeated on every slice Newton
           converges onto it *)
        let n1 = 15 and orbit = hopf_orbit () in
        let ramp = hopf (fun t -> 0.25 -. (0.05 *. t)) in
        let periodic = hopf (fun t -> -0.3 +. (0.55 *. cos (2. *. Float.pi *. t /. 40.))) in
        let quenched what f =
          match f () with
          | () -> Alcotest.failf "%s returned normally" what
          | exception Steady.Oscillator.Nonphysical msg ->
            Alcotest.(check bool)
              (Printf.sprintf "%s: %S names t2 and the amplitude" what msg)
              true
              (Str.string_match (Str.regexp ".*quenched at t2 = .*(amplitude ") msg 0)
        in
        List.iter
          (fun (path, solver) ->
            let options = Wampde.Envelope.default_options ~n1 ~solver () in
            let named what = Printf.sprintf "%s, %s" what path in
            quenched (named "simulate") (fun () ->
                ignore (Wampde.Envelope.simulate ramp ~options ~t2_end:60. ~h2:0.5 ~init:orbit));
            quenched (named "simulate_controlled") (fun () ->
                ignore
                  (Wampde.Envelope.simulate_controlled ramp ~options
                     ~control:(Step_control.default_options ~rtol:1e-4 ())
                     ~t2_end:60. ~init:orbit ()));
            let n2 = 7 in
            let guess =
              {
                Wampde.Quasiperiodic.p2 = 40.;
                t2 = Array.init n2 (fun m -> 40. *. float_of_int m /. float_of_int n2);
                omega = Array.make n2 orbit.Steady.Oscillator.omega;
                slices = Array.make n2 orbit.Steady.Oscillator.grid;
              }
            in
            quenched (named "Quasiperiodic.solve") (fun () ->
                ignore (Wampde.Quasiperiodic.solve periodic ~options ~p2:40. ~n2 ~guess ()));
            (* the warm-up quenches at the step 40/21, already shorter
               than the orbit's period of 2 pi: not refined, it raises *)
            Wampde_obs.Metrics.with_isolated (fun () ->
                Wampde_obs.set_enabled true;
                quenched (named "from_orbit") (fun () ->
                    ignore
                      (Wampde.Quasiperiodic.from_orbit periodic ~options ~p2:40. ~n2 ~init:orbit
                         ()));
                Alcotest.(check int) (named "from_orbit not refined") 0 (refinements ())))
          [ ("dense", Structured.Dense); ("krylov", Structured.Krylov) ]);
    Alcotest.test_case "a swing that dips and recovers is not a quench" `Quick (fun () ->
        (* mu(t2) = 0.05 + 0.2 cos (2 pi t2 / 40) dips to -0.15: the
           swing shrinks to a fifth and grows back, and from_orbit's
           warm-up keeps it *)
        let orbit = hopf_orbit () in
        let dips = hopf (fun t -> 0.05 +. (0.2 *. cos (2. *. Float.pi *. t /. 40.))) in
        let options = Wampde.Envelope.default_options ~n1:15 () in
        Wampde_obs.Metrics.with_isolated (fun () ->
            Wampde_obs.set_enabled true;
            let sol = Wampde.Quasiperiodic.from_orbit dips ~options ~p2:40. ~n2:7 ~init:orbit () in
            Alcotest.(check int) "no refinement" 0 (refinements ());
            approx_tol 1e-9 "omega is 1 / (2 pi)" (1. /. (2. *. Float.pi))
              (Wampde.Quasiperiodic.mean_frequency sol)));
  ]

let shooting_tests =
  [
    Alcotest.test_case "autonomous shooting: harmonic-like vdp small mu" `Quick (fun () ->
        let r =
          Steady.Shooting.autonomous (vdp 0.1) ~steps_per_period:600 ~period_guess:6.28
            [| 2.; 0. |]
        in
        approx_tol 5e-3 "period ~ 2 pi" (two_pi *. (1. +. (0.01 /. 16.))) r.Steady.Shooting.period);
    Alcotest.test_case "flow map is identity at t1 = t0" `Quick (fun () ->
        let dae = vdp 1. in
        let x = [| 1.3; -0.5 |] in
        let y = Steady.Shooting.flow dae ~t0:0. ~t1:0. ~steps:10 x in
        Alcotest.(check bool) "identity" true (Vec.approx_equal x y));
  ]

let suites =
  [
    ("steady.oscillator", oscillator_tests);
    ("steady.quench", quench_tests);
    ("steady.quench_floor", quench_floor_tests);
    ("steady.shooting", shooting_tests);
  ]
