(* Tests for frequency-domain harmonic balance, cross-checked against
   the MPDE's time-domain collocation and transient simulation. *)

let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

let forced_rl ~period =
  Dae.of_ode ~dim:1 ~rhs:(fun ~t x -> [| cos (two_pi *. t /. period) -. x.(0) |]) ()

let hb_tests =
  [
    Alcotest.test_case "linear forced system matches analytic solution" `Quick (fun () ->
        let period = 2. in
        let dae = forced_rl ~period in
        let w = two_pi /. period in
        let exact t = (cos (w *. t) +. (w *. sin (w *. t))) /. (1. +. (w *. w)) in
        let nn = 11 in
        let sol =
          Steady.Hb.solve dae ~period ~harmonics:5 ~guess:(Array.init nn (fun _ -> [| 0. |]))
        in
        for k = 0 to 20 do
          let t = period *. float_of_int k /. 20. in
          approx_tol 1e-8 "waveform" (exact t) (Steady.Hb.eval sol ~component:0 t)
        done;
        approx_tol 1e-8 "residual" 0. (Steady.Hb.residual_norm dae sol);
        (* a linear problem has exactly one harmonic *)
        let spec = Steady.Hb.spectrum sol ~component:0 in
        Alcotest.(check bool) "only fundamental" true
          (spec.(1) > 0.1 && spec.(2) < 1e-10 && spec.(0) < 1e-10));
    Alcotest.test_case "hb equals time-domain collocation on nonlinear problem" `Quick
      (fun () ->
        (* driven nonlinear RC: x' + x + 0.3 x^3 = cos(2 pi t / T); HB
           sees the forcing inside f, the MPDE at frozen t2 as b_fast *)
        let period = 3. in
        let forcing t = cos (two_pi *. t /. period) in
        let cubic x = x.(0) +. (0.3 *. (x.(0) ** 3.)) in
        let dae = Dae.of_ode ~dim:1 ~rhs:(fun ~t x -> [| forcing t -. cubic x |]) () in
        let m = 7 in
        let nn = (2 * m) + 1 in
        let guess = Array.init nn (fun _ -> [| 0. |]) in
        let hb = Steady.Hb.solve dae ~period ~harmonics:m ~guess in
        let sys =
          {
            Mpde.dae = Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.cubic x |]) ();
            p1 = period;
            b_fast = (fun ~t1 ~t2:_ -> [| -.forcing t1 |]);
          }
        in
        let colloc = Mpde.periodic_initial sys ~n1:nn ~guess in
        let samples = Array.map (fun x -> x.(0)) colloc in
        for k = 0 to 30 do
          let t = period *. float_of_int k /. 30. in
          approx_tol 1e-7 "same waveform"
            (Fourier.Series.interp samples ~period t)
            (Steady.Hb.eval hb ~component:0 t)
        done);
    Alcotest.test_case "diode rectifier: hb matches settled transient" `Quick (fun () ->
        (* half-wave rectifier with RC load, driven at 1 MHz-ish scale *)
        let period = 1. in
        let net = Circuit.Mna.create () in
        let nin = Circuit.Mna.node net "in" and nout = Circuit.Mna.node net "out" in
        Circuit.Mna.add net
          (Circuit.Mna.vsource ~label:"V"
             ~v:(fun t -> 1.5 *. sin (two_pi *. t /. period))
             nin Circuit.Mna.ground);
        Circuit.Mna.add net (Circuit.Mna.diode ~label:"D" ~is_:1e-6 ~vt:0.05 nin nout);
        Circuit.Mna.add net (Circuit.Mna.resistor ~label:"R" ~r:5. nout Circuit.Mna.ground);
        Circuit.Mna.add net (Circuit.Mna.capacitor ~label:"C" ~c:1. nout Circuit.Mna.ground);
        let dae = Circuit.Mna.compile net in
        let hb =
          Steady.Hb.solve_from_transient dae ~period ~harmonics:12 ~warmup_periods:20
            (Circuit.Mna.initial_guess net)
        in
        let traj =
          Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:30.
            ~h:(period /. 400.)
            (Circuit.Mna.initial_guess net)
        in
        (* compare dc output over the last (settled) period *)
        for k = 0 to 10 do
          let t = 29. +. (float_of_int k /. 10.) in
          let hb_v = Steady.Hb.eval hb ~component:(nout - 1) t in
          let tr_v = Transient.interpolate traj (nout - 1) t in
          Alcotest.(check bool) "rectified output" true (Float.abs (hb_v -. tr_v) < 0.01)
        done;
        (* rectifier output is positive DC with ripple *)
        let spec = Steady.Hb.spectrum hb ~component:(nout - 1) in
        Alcotest.(check bool) "dc component present" true (spec.(0) > 0.2));
    Alcotest.test_case "grid/coefficients roundtrip" `Quick (fun () ->
        let period = 2. in
        let dae = forced_rl ~period in
        let nn = 11 in
        let sol =
          Steady.Hb.solve dae ~period ~harmonics:5 ~guess:(Array.init nn (fun _ -> [| 0. |]))
        in
        let g = Steady.Hb.grid sol in
        Alcotest.(check int) "grid size" nn (Array.length g);
        for j = 0 to nn - 1 do
          let t = period *. float_of_int j /. float_of_int nn in
          approx_tol 1e-9 "grid point" (Steady.Hb.eval sol ~component:0 t) g.(j).(0)
        done);
  ]

let suites = [ ("steady.hb", hb_tests) ]
