(* Application-level integration tests: the analog multiplier, the
   frequency-domain (harmonic-balance form, eq. (18)) view of envelope
   runs, and PLL capture. *)
open Linalg
open Testkit

let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

(* Fourier coefficient [harmonic] of component 0's [t1] waveform at
   every accepted [t2] step of an envelope run *)
let harmonic_track res harmonic =
  Array.mapi
    (fun index _ ->
      Fourier.Series.harmonic
        (Fourier.Series.coeffs (Wampde.Envelope.slice res ~index ~component:0))
        harmonic)
    res.Wampde.Envelope.slices

let multiplier_tests =
  [
    Alcotest.test_case "multiplier output current is k va vb" `Quick (fun () ->
        let net = Circuit.Mna.create () in
        let a = Circuit.Mna.node net "a"
        and b = Circuit.Mna.node net "b"
        and o = Circuit.Mna.node net "o" in
        let gnd = Circuit.Mna.ground in
        Circuit.Mna.add net (Circuit.Mna.multiplier ~label:"X" ~k:0.5 (a, gnd) (b, gnd) gnd o);
        Circuit.Mna.add net (Circuit.Mna.resistor ~label:"R" ~r:2. o gnd);
        let dae = Circuit.Mna.compile net in
        (* current 0.5 * 3 * 4 = 6 pushed into o; KCL at o: -6 + v/2 = 0 *)
        let f = dae.Dae.f ~t:0. [| 3.; 4.; 12. |] in
        approx_tol 1e-12 "kcl balanced" 0. f.(o - 1));
    Alcotest.test_case "multiplier jacobian matches finite differences" `Quick (fun () ->
        let net = Circuit.Mna.create () in
        let a = Circuit.Mna.node net "a"
        and b = Circuit.Mna.node net "b"
        and o = Circuit.Mna.node net "o" in
        let gnd = Circuit.Mna.ground in
        Circuit.Mna.add net (Circuit.Mna.multiplier ~label:"X" ~k:0.7 (a, gnd) (b, gnd) gnd o);
        Circuit.Mna.add net (Circuit.Mna.resistor ~label:"R" ~r:1. o gnd);
        let dae = Circuit.Mna.compile net in
        let x = [| 1.2; -0.8; 0.3 |] in
        let fd = Nonlin.Fdjac.jacobian_central (fun y -> dae.Dae.f ~t:0. y) x in
        Alcotest.(check bool) "df" true (Mat.approx_equal ~tol:1e-5 (dae.Dae.df ~t:0. x) fd));
  ]

let hbform_tests =
  [
    Alcotest.test_case "fundamental magnitude tracks half the amplitude" `Quick (fun () ->
        let p = Circuit.Vco.vco_a () in
        let dae = Circuit.Vco.build p in
        let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build p0) ~n1:25 ~period_hint:1.333
            (Circuit.Vco.initial_state p0)
        in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        let res = Wampde.Envelope.simulate dae ~options ~t2_end:20. ~h2:0.4 ~init:orbit in
        let fund = Array.map Complex.norm (harmonic_track res 1) in
        let amp = Wampde.Envelope.amplitude_track res ~component:0 in
        Array.iteri
          (fun i a ->
            (* |X_1| ~ amplitude/2 for a nearly sinusoidal waveform *)
            Alcotest.(check bool) "half amplitude" true
              (Float.abs ((2. *. fund.(i)) -. a) /. a < 0.05))
          amp);
    Alcotest.test_case "eq (20) residual vanishes under the Fourier phase condition" `Quick
      (fun () ->
        let p = Circuit.Vco.vco_a () in
        let dae = Circuit.Vco.build p in
        let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build p0) ~n1:25 ~period_hint:1.333
            (Circuit.Vco.initial_state p0)
        in
        let options =
          Wampde.Envelope.default_options ~n1:25
            ~phase:(Dae.Phase.Fourier { component = 0; harmonic = 1 })
            ()
        in
        let res = Wampde.Envelope.simulate dae ~options ~t2_end:10. ~h2:0.4 ~init:orbit in
        let residual = Array.map Cx.im (harmonic_track res 1) in
        (* the initial orbit used the derivative condition, so skip index 0 *)
        Array.iteri
          (fun i r -> if i > 0 then approx_tol 1e-7 "Im X1 = 0" 0. r)
          residual);
  ]

let pll_tests =
  [
    Alcotest.test_case "pll locks to a nearby reference" `Slow (fun () ->
        let f_ref = 1.000 in
        let net = Circuit.Mna.create () in
        let node = Circuit.Mna.node net in
        let tank = node "tank" and reference = node "ref" in
        let pd = node "pd" and ctl = node "ctl" and bias = node "bias" in
        let gnd = Circuit.Mna.ground in
        Circuit.Mna.add net (Circuit.Mna.inductor ~label:"L1" ~l:0.02 tank gnd);
        Circuit.Mna.add net
          (Circuit.Mna.cubic_conductance ~label:"GN" ~g1:1.0 ~g3:(1. /. 3.) tank gnd);
        Circuit.Mna.add net
          (Circuit.Mna.junction_capacitor ~label:"CV" ~c0:3.0 ~vj:0.7 ~m:0.5 tank ctl);
        Circuit.Mna.add net
          (Circuit.Mna.vsource ~label:"VR"
             ~v:(fun t -> cos (two_pi *. f_ref *. t))
             reference gnd);
        Circuit.Mna.add net
          (Circuit.Mna.multiplier ~label:"PD" ~k:0.15 (tank, gnd) (reference, gnd) gnd pd);
        Circuit.Mna.add net (Circuit.Mna.vsource ~label:"VB" ~v:(fun _ -> 3.) bias gnd);
        Circuit.Mna.add net (Circuit.Mna.resistor ~label:"RF" ~r:5. bias pd);
        Circuit.Mna.add net (Circuit.Mna.capacitor ~label:"CF" ~c:0.8 pd gnd);
        Circuit.Mna.add net (Circuit.Mna.vcvs ~label:"E1" ~gain:1. pd gnd ctl gnd);
        let dae = Circuit.Mna.compile net in
        let x0 = Circuit.Mna.initial_guess net in
        x0.(tank - 1) <- 2.;
        x0.(pd - 1) <- 3.;
        x0.(ctl - 1) <- 3.;
        let traj =
          Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:150.
            ~h:(1. /. 200.) x0
        in
        let v_tank = Transient.component traj (tank - 1) in
        let _, freq =
          Sigproc.Zero_crossing.instantaneous_frequency ~times:traj.Transient.times v_tank
        in
        let n = Array.length freq in
        let tail = Array.sub freq (n - (n / 10)) (n / 10) in
        let f_locked = Array.fold_left ( +. ) 0. tail /. float_of_int (Array.length tail) in
        approx_tol 2e-3 "locked" f_ref f_locked);
  ]

let hb_envelope_tests =
  [
    Alcotest.test_case "coefficient-space WaMPDE (eq 19) equals time-domain envelope" `Slow
      (fun () ->
        let p = Circuit.Vco.vco_a () in
        let dae = Circuit.Vco.build p in
        let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build p0) ~n1:25 ~period_hint:1.333
            (Circuit.Vco.initial_state p0)
        in
        let hb =
          Wampde.Hb_envelope.simulate dae ~harmonics:12 ~t2_end:6. ~h2:0.2 ~init:orbit ()
        in
        let opts =
          Wampde.Envelope.default_options ~n1:25
            ~phase:(Dae.Phase.Fourier { component = 0; harmonic = 1 })
            ()
        in
        let td = Wampde.Envelope.simulate dae ~options:opts ~t2_end:6. ~h2:0.2 ~init:orbit in
        Array.iteri
          (fun i om ->
            approx_tol 1e-6 "same omega" td.Wampde.Envelope.omega.(i) om)
          hb.Wampde.Hb_envelope.omega;
        (* fundamental coefficient track agrees too *)
        let m = Array.length hb.Wampde.Hb_envelope.t2 in
        let track = harmonic_track td 1 in
        for step = 0 to m - 1 do
          let c_hb =
            Wampde.Hb_envelope.eval_coefficient hb ~step ~component:0 ~harmonic:1
          in
          approx_tol 1e-5 "Re X1" (Cx.re track.(step)) (Cx.re c_hb)
        done);
    Alcotest.test_case "coefficient-space WaMPDE evaluates the circuit once per residual" `Slow
      (fun () ->
        let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build p0) ~n1:25 ~period_hint:1.333
            (Circuit.Vco.initial_state p0)
        in
        let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
        let evals =
          Wampde_obs.Metrics.with_isolated (fun () ->
              Wampde_obs.set_enabled true;
              ignore
                (Wampde.Hb_envelope.simulate dae ~harmonics:12 ~t2_end:6. ~h2:0.2 ~init:orbit ());
              Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter "dae.evals"))
        in
        (* 25 grid points per residual over 5,844 residuals, plus the
           start point; each accepted point's q and g come from the
           residual that accepted it *)
        Alcotest.(check int) "dae.evals" (25 * 5845) evals);
    Alcotest.test_case "phase conditions now agree pointwise after alignment" `Quick
      (fun () ->
        let p = Circuit.Vco.vco_a () in
        let dae = Circuit.Vco.build p in
        let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build p0) ~n1:25 ~period_hint:1.333
            (Circuit.Vco.initial_state p0)
        in
        let run phase =
          let opts = Wampde.Envelope.default_options ~n1:25 ~phase () in
          Wampde.Envelope.simulate dae ~options:opts ~t2_end:6. ~h2:0.2 ~init:orbit
        in
        let rd = run (Dae.Phase.Derivative 0) in
        let rf = run (Dae.Phase.Fourier { component = 0; harmonic = 1 }) in
        Array.iteri
          (fun i om ->
            (* a near-sinusoidal waveform peaks where Im X1 = 0: the two
               conditions pick almost the same representative *)
            Alcotest.(check bool) "close" true
              (Float.abs (om -. rd.Wampde.Envelope.omega.(i)) < 0.01))
          rf.Wampde.Envelope.omega);
  ]

let suites =
  [
    ("apps.multiplier", multiplier_tests);
    ("apps.hbform", hbform_tests);
    ("apps.pll", pll_tests);
    ("apps.hb_envelope", hb_envelope_tests);
  ]
