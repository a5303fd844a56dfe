(* Tests for the WaMPDE core: phase conditions, envelope following,
   recovery along the warped path, and the quasiperiodic solver. *)
open Linalg

let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

(* A "prescribed-FM" LC oscillator for analytic validation: LC tank +
   cubic negative resistor where the capacitance is an explicit slow
   function of time, C(t2) = c0 / (1 + m sin(2 pi t2 / p2)).  The local
   frequency must track 1 / (2 pi sqrt(L C(t2))) quasi-statically. *)
let prescribed_fm ~l ~c0 ~m ~p2 =
  let c t = c0 /. (1. +. (m *. sin (two_pi *. t /. p2))) in
  let g1 = 1.0 and g3 = 1. /. 3. in
  Dae.make ~dim:2
    ~q:(fun _ -> [| 0.; 0. |])
    (* dummy; replaced below *)
    ~f:(fun ~t:_ _ -> [| 0.; 0. |])
    ()
  |> fun _ ->
  Dae.make ~dim:2
    ~q:(fun x -> [| x.(0); l *. x.(1) |])
    (* NOTE: capacitor charge is written as C(t2) v only through f to keep
       q time-independent: we use the equivalent form
       C(t2) dv/dt = -(iL + inl(v)) <=> dv/dt = -(iL + inl(v)) / C(t2) *)
    ~f:(fun ~t x ->
      let inl = (-.g1 *. x.(0)) +. (g3 *. (x.(0) ** 3.)) in
      [| (x.(1) +. inl) /. c t; -.x.(0) |])
    ~dq:(fun _ -> [| [| 1.; 0. |]; [| 0.; l |] |])
    ~df:(fun ~t x ->
      let dinl = -.g1 +. (3. *. g3 *. x.(0) *. x.(0)) in
      [| [| dinl /. c t; 1. /. c t |]; [| -1.; 0. |] |])
    ()

let vco_a_setup () =
  let p = Circuit.Vco.vco_a () in
  let dae = Circuit.Vco.build p in
  let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
  let dae0 = Circuit.Vco.build p0 in
  let orbit =
    Steady.Oscillator.find dae0 ~n1:25 ~period_hint:1.333 (Circuit.Vco.initial_state p0)
  in
  (dae, orbit)

(* VCO-A's unforced orbit at [n1], as the serve daemon finds it *)
let vco_a_orbit ~n1 =
  let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
  Steady.Oscillator.find (Circuit.Vco.build p0) ~n1 ~period_hint:(1. /. 0.75)
    (Circuit.Vco.initial_state p0)

let phase_tests =
  [
    Alcotest.test_case "derivative row annihilates even waveforms" `Quick (fun () ->
        let n1 = 15 and n = 2 in
        let d = Fourier.Series.diff_matrix n1 in
        let row = Dae.Phase.row (Dae.Phase.Derivative 0) ~n1 ~n ~d in
        (* x0(t1) = cos(2 pi t1) has zero derivative at t1 = 0 *)
        let x =
          Vec.init (n1 * n) (fun idx ->
              if idx mod n = 0 then cos (two_pi *. float_of_int (idx / n) /. float_of_int n1)
              else 0.42)
        in
        approx_tol 1e-9 "zero" 0. (Vec.dot row x));
    Alcotest.test_case "fourier row computes Im of coefficient" `Quick (fun () ->
        let n1 = 15 and n = 1 in
        let d = Fourier.Series.diff_matrix n1 in
        let row =
          Dae.Phase.row (Dae.Phase.Fourier { component = 0; harmonic = 1 }) ~n1 ~n ~d
        in
        (* sin has Im c1 = -1/2, cos has Im c1 = 0; the row is scaled by
           n1 to keep it O(1) in the Newton system *)
        let sine = Vec.init n1 (fun j -> sin (two_pi *. float_of_int j /. float_of_int n1)) in
        let cosine = Vec.init n1 (fun j -> cos (two_pi *. float_of_int j /. float_of_int n1)) in
        approx_tol 1e-9 "sin" (-0.5 *. float_of_int n1) (Vec.dot row sine);
        approx_tol 1e-9 "cos" 0. (Vec.dot row cosine));
    Alcotest.test_case "bad component rejected" `Quick (fun () ->
        let d = Fourier.Series.diff_matrix 5 in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Dae.Phase.row (Dae.Phase.Derivative 3) ~n1:5 ~n:2 ~d);
             false
           with Invalid_argument _ -> true));
  ]

let envelope_tests =
  [
    Alcotest.test_case "constant forcing keeps the unforced orbit" `Quick (fun () ->
        (* VCO with frozen control: envelope must stay at the initial orbit
           with constant omega *)
        let p = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let dae = Circuit.Vco.build p in
        let orbit =
          Steady.Oscillator.find dae ~n1:25 ~period_hint:1.333 (Circuit.Vco.initial_state p)
        in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        let res = Wampde.Envelope.simulate dae ~options ~t2_end:10. ~h2:0.5 ~init:orbit in
        Array.iter
          (fun om -> approx_tol 1e-5 "omega constant" orbit.Steady.Oscillator.omega om)
          res.Wampde.Envelope.omega;
        (* slices should not drift *)
        let last = res.Wampde.Envelope.slices.(Array.length res.Wampde.Envelope.slices - 1) in
        for j = 0 to 24 do
          approx_tol 1e-4 "slice stable" orbit.Steady.Oscillator.grid.(j).(0) last.(j).(0)
        done);
    Alcotest.test_case "prescribed C(t2): local frequency tracks 1/(2 pi sqrt(LC))" `Quick
      (fun () ->
        let l = 0.045 and c0 = 1.0 and m = 0.3 and p2 = 400. in
        let dae = prescribed_fm ~l ~c0 ~m ~p2 in
        let orbit = Steady.Oscillator.find dae ~n1:25 ~period_hint:1.333 [| 2.; 0. |] in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        let res = Wampde.Envelope.simulate dae ~options ~t2_end:p2 ~h2:2. ~init:orbit in
        (* slow forcing (p2 = 400 >> mechanical/none) => quasi-static *)
        Array.iteri
          (fun i t2 ->
            if i mod 20 = 0 then begin
              let c = c0 /. (1. +. (m *. sin (two_pi *. t2 /. p2))) in
              let f_lc = 1. /. (two_pi *. sqrt (l *. c)) in
              let rel =
                Float.abs (res.Wampde.Envelope.omega.(i) -. f_lc) /. f_lc
              in
              Alcotest.(check bool) "within 1%" true (rel < 0.01)
            end)
          res.Wampde.Envelope.t2);
    Alcotest.test_case "VCO-A: frequency swings by a factor of ~3 (fig 7)" `Slow (fun () ->
        let dae, orbit = vco_a_setup () in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        let res = Wampde.Envelope.simulate dae ~options ~t2_end:60. ~h2:0.4 ~init:orbit in
        let om = res.Wampde.Envelope.omega in
        let omin = Array.fold_left Float.min infinity om in
        let omax = Array.fold_left Float.max neg_infinity om in
        Alcotest.(check bool) "ratio in [2, 3.5]" true
          (omax /. omin > 2.0 && omax /. omin < 3.5);
        approx_tol 0.01 "starts at 0.748" 0.748 om.(0));
    Alcotest.test_case "VCO-A: waveform matches transient (fig 9)" `Slow (fun () ->
        let dae, orbit = vco_a_setup () in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        let res = Wampde.Envelope.simulate dae ~options ~t2_end:60. ~h2:0.4 ~init:orbit in
        let x0 = Array.init 4 (fun i -> orbit.Steady.Oscillator.grid.(0).(i)) in
        let traj =
          Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:60.
            ~h:(1.333 /. 1000.) x0
        in
        let w = Wampde.Envelope.warping res in
        let worst = ref 0. in
        for k = 0 to 600 do
          let t = 0.1 *. float_of_int k in
          let vw = Sigproc.Warp.eval w ~component:0 t in
          (* the one-point entry reads the same value *)
          if k mod 100 = 0 then
            Alcotest.(check (float 0.)) "eval_waveform" vw (Wampde.Envelope.eval_waveform res ~component:0 t);
          let vt = Transient.interpolate traj 0 t in
          worst := Float.max !worst (Float.abs (vw -. vt))
        done;
        (* |v| ~ 2.2 V: agreement within a few percent over 45 cycles *)
        Alcotest.(check bool) "close waveforms" true (!worst < 0.1));
    Alcotest.test_case "theta = 1 (BE) also converges, less accurately" `Quick (fun () ->
        let dae, orbit = vco_a_setup () in
        let opt_trap = Wampde.Envelope.default_options ~n1:25 () in
        let opt_be = { opt_trap with Wampde.Envelope.theta = 1. } in
        let trap = Wampde.Envelope.simulate dae ~options:opt_trap ~t2_end:10. ~h2:0.25 ~init:orbit in
        let be = Wampde.Envelope.simulate dae ~options:opt_be ~t2_end:10. ~h2:0.25 ~init:orbit in
        let last a = a.(Array.length a - 1) in
        (* both land near each other; BE is dissipative so allow 2% *)
        let rel =
          Float.abs (last be.Wampde.Envelope.omega -. last trap.Wampde.Envelope.omega)
          /. last trap.Wampde.Envelope.omega
        in
        Alcotest.(check bool) "BE close to trap" true (rel < 0.02));
    Alcotest.test_case "fd4 differentiation agrees with spectral" `Quick (fun () ->
        let dae, orbit0 = vco_a_setup () in
        ignore orbit0;
        (* need an orbit on a denser grid for FD4 accuracy *)
        let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let dae0 = Circuit.Vco.build p0 in
        let orbit =
          Steady.Oscillator.find dae0 ~n1:51 ~period_hint:1.333 (Circuit.Vco.initial_state p0)
        in
        let opt_sp = Wampde.Envelope.default_options ~n1:51 () in
        let opt_fd = { opt_sp with Wampde.Envelope.differentiation = `Fd4 } in
        let sp = Wampde.Envelope.simulate dae ~options:opt_sp ~t2_end:8. ~h2:0.25 ~init:orbit in
        let fd = Wampde.Envelope.simulate dae ~options:opt_fd ~t2_end:8. ~h2:0.25 ~init:orbit in
        let last a = a.(Array.length a - 1) in
        let rel =
          Float.abs (last fd.Wampde.Envelope.omega -. last sp.Wampde.Envelope.omega)
          /. last sp.Wampde.Envelope.omega
        in
        Alcotest.(check bool) "fd4 close" true (rel < 0.02));
    Alcotest.test_case "adaptive matches fixed step" `Quick (fun () ->
        let dae, orbit = vco_a_setup () in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        let fixed = Wampde.Envelope.simulate dae ~options ~t2_end:12. ~h2:0.1 ~init:orbit in
        let adaptive =
          Wampde.Envelope.simulate_controlled dae ~options
            ~control:
              (Step_control.default_options ~rtol:1e-6 ~atol:1e-9 ~h_min:1e-9 ~h_max:(12. /. 5.)
                 ())
            ~h2_init:0.5 ~t2_end:12. ~init:orbit ()
        in
        let last a = a.(Array.length a - 1) in
        let rel =
          Float.abs (last adaptive.Wampde.Envelope.omega -. last fixed.Wampde.Envelope.omega)
          /. last fixed.Wampde.Envelope.omega
        in
        Alcotest.(check bool) "same omega" true (rel < 1e-3));
    Alcotest.test_case "controlled march tracks a fine fixed-step reference" `Quick (fun () ->
        (* two serve-batch VCO-A jobs: omega at every accepted point lies
           within rtol (relative) of a fixed-step march at h2 = 0.01 *)
        let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
        List.iter
          (fun (name, t_end, rtol, n1, solver) ->
            let init = vco_a_orbit ~n1 in
            let options = Wampde.Envelope.default_options ~n1 ~solver () in
            let control =
              Step_control.default_options ~rtol ~atol:(rtol /. 1000.) ~h_min:1e-9
                ~h_max:(t_end /. 2.) ()
            in
            let res = Wampde.Envelope.simulate_controlled dae ~options ~control ~t2_end:t_end ~init () in
            let reference =
              Wampde.Envelope.simulate dae ~options:(Wampde.Envelope.default_options ~n1 ())
                ~t2_end:t_end ~h2:0.01 ~init
            in
            let worst = ref 0. in
            Array.iteri
              (fun i t ->
                let o =
                  Testkit.linear_interp reference.Wampde.Envelope.t2 reference.Wampde.Envelope.omega t
                in
                worst := Float.max !worst (Float.abs (res.Wampde.Envelope.omega.(i) -. o) /. o))
              res.Wampde.Envelope.t2;
            Alcotest.(check bool)
              (Printf.sprintf "%s: worst omega error %.3g within rtol %g" name !worst rtol)
              true (!worst <= rtol))
          [ ("a1", 12., 3e-4, 17, Structured.Krylov); ("a5", 6., 1e-3, 15, Structured.auto) ]);
    Alcotest.test_case "dense chord refresh words grow linearly, not as size^2" `Quick (fun () ->
        (* a fixed-step dense march refills and refactors one
           size x size buffer per Jacobian refresh, so the words per
           refresh (everything else in the march included) grow with
           the system size, not with its square (61 -> 165 unknowns
           would multiply a per-refresh matrix copy by 7.3) *)
        let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
        let per_refresh n1 =
          let init = vco_a_orbit ~n1 in
          let options = Wampde.Envelope.default_options ~n1 ~solver:Structured.Dense () in
          let run () = ignore (Wampde.Envelope.simulate dae ~options ~t2_end:20. ~h2:0.5 ~init) in
          let w = Test_par.steady_words run in
          let refreshes =
            Wampde_obs.Metrics.with_isolated (fun () ->
                Wampde_obs.set_enabled true;
                run ();
                Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter "envelope.jacobian_refreshes"))
          in
          Alcotest.(check bool) (Printf.sprintf "n1 = %d refreshes" n1) true (refreshes > 0);
          ((4 * n1) + 1, w /. float_of_int refreshes)
        in
        let size_a, w_a = per_refresh 15 and size_b, w_b = per_refresh 41 in
        let linear = float_of_int size_b /. float_of_int size_a in
        Alcotest.(check bool)
          (Printf.sprintf "words per refresh %.0f -> %.0f (x%.2f) within 1.15 x %.2f" w_a w_b
             (w_b /. w_a) linear)
          true
          (w_b /. w_a <= 1.15 *. linear));
    Alcotest.test_case "the dense march evaluates the circuit once per pass, not per accept"
      `Quick (fun () ->
        (* the fixed VCO-B march of the headline speedup: per step one
           residual pass at Newton's start, one per iteration and one
           per Jacobian refresh; g and the charges of an accepted point
           come from its last residual pass, so only the start point
           evaluates them (two passes).  Each pass evaluates all n1
           grid points. *)
        let n1 = 25 in
        let vco_b control = Circuit.Vco.default_params ~damping:1.57 ~force0:4.0e-3 ~control () in
        let frozen = vco_b (fun _ -> 1.5) in
        let init =
          Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1 ~period_hint:(1. /. 0.75)
            (Circuit.Vco.initial_state frozen)
        in
        let dae =
          Circuit.Vco.build (vco_b (fun t -> 1.5 +. (0.8 *. sin (two_pi *. t /. 1000.))))
        in
        let options = Wampde.Envelope.default_options ~n1 () in
        Wampde_obs.Metrics.with_isolated (fun () ->
            Wampde_obs.set_enabled true;
            ignore (Wampde.Envelope.simulate dae ~options ~t2_end:300. ~h2:5. ~init);
            let count name = Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter name) in
            let steps = count "envelope.steps" and iterations = count "newton.iterations" in
            let refreshes = count "envelope.jacobian_refreshes" and evals = count "dae.evals" in
            Alcotest.(check int) "steps" 60 steps;
            Alcotest.(check int)
              (Printf.sprintf "n1 (steps + iterations + refreshes + 2), %d iterations, %d refreshes"
                 iterations refreshes)
              (n1 * (steps + iterations + refreshes + 2))
              evals;
            Alcotest.(check int) "evaluations" 7_525 evals));
    Alcotest.test_case "every theta solve takes a Newton iteration" `Quick (fun () ->
        (* a residual tolerance loose enough that the extrapolated start
           already meets it: each solve still iterates once, so a
           controlled attempt (one whole and two half steps) costs at
           least three iterations and a fixed step at least one *)
        let n1 = 15 in
        let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
        let init = vco_a_orbit ~n1 in
        let options = Wampde.Envelope.default_options ~n1 () in
        let options =
          {
            options with
            Wampde.Envelope.newton =
              { options.Wampde.Envelope.newton with Nonlin.Newton.residual_tol = 1e-4 };
          }
        in
        let counted f =
          Wampde_obs.Metrics.with_isolated (fun () ->
              Wampde_obs.set_enabled true;
              let res = f () in
              let count name = Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter name) in
              (res.Wampde.Envelope.newton_iterations, count "step.accepted", count "step.rejected"))
        in
        let iters, accepted, rejected =
          counted (fun () ->
              Wampde.Envelope.simulate_controlled dae ~options
                ~control:(Step_control.default_options ~rtol:1e-3 ~atol:1e-6 ~h_min:1e-9 ())
                ~t2_end:20. ~init ())
        in
        Alcotest.(check bool)
          (Printf.sprintf "controlled: %d iterations for %d attempts" iters (accepted + rejected))
          true
          (iters >= 3 * (accepted + rejected));
        let iters, accepted, _ =
          counted (fun () -> Wampde.Envelope.simulate dae ~options ~t2_end:20. ~h2:0.25 ~init)
        in
        Alcotest.(check bool)
          (Printf.sprintf "fixed: %d iterations for %d steps" iters accepted)
          true (iters >= accepted));
    Alcotest.test_case "fourier phase condition gives same frequency" `Quick (fun () ->
        let dae, orbit = vco_a_setup () in
        let opt_d = Wampde.Envelope.default_options ~n1:25 () in
        let opt_f =
          Wampde.Envelope.default_options ~n1:25
            ~phase:(Dae.Phase.Fourier { component = 0; harmonic = 1 })
            ()
        in
        let rd = Wampde.Envelope.simulate dae ~options:opt_d ~t2_end:8. ~h2:0.2 ~init:orbit in
        let rf = Wampde.Envelope.simulate dae ~options:opt_f ~t2_end:8. ~h2:0.2 ~init:orbit in
        (* the paper: different compact phase choices give local
           frequencies differing pointwise only by O(f2) (here
           f2 = 1/40 MHz), while the accumulated phase (the mean of
           omega) is phase-condition independent *)
        let f2 = 1. /. 40. in
        Array.iteri
          (fun i om_f ->
            Alcotest.(check bool) "pointwise O(f2)" true
              (Float.abs (om_f -. rd.Wampde.Envelope.omega.(i)) < 8. *. f2))
          rf.Wampde.Envelope.omega;
        let rel =
          Float.abs (Vec.mean rf.Wampde.Envelope.omega -. Vec.mean rd.Wampde.Envelope.omega)
          /. Vec.mean rd.Wampde.Envelope.omega
        in
        Alcotest.(check bool) "mean omega agrees" true (rel < 1e-3));
    Alcotest.test_case "a krylov march is bitwise the same at jobs 1 and 2" `Quick (fun () ->
        (* VCO-A's full control swing at h2 = 2 (strong modulation) on
           the matrix-free path, whose structured matvec and
           preconditioner factor run on the domain pool.  The jobs-2
           run must open pool regions, or the comparison shows nothing *)
        let n1 = 41 in
        let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) and init = vco_a_orbit ~n1 in
        let options = Wampde.Envelope.default_options ~n1 ~solver:Structured.Krylov () in
        let run jobs =
          Test_par.with_jobs jobs (fun () ->
              Wampde_obs.Metrics.with_isolated (fun () ->
                  Wampde_obs.set_enabled true;
                  let res = Wampde.Envelope.simulate dae ~options ~t2_end:20. ~h2:2. ~init in
                  (res, Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter "pool.runs"))))
        in
        let serial, _ = run 1 in
        let parallel, regions = run 2 in
        Alcotest.(check bool) (Printf.sprintf "%d pool regions at jobs 2" regions) true (regions > 0);
        Alcotest.(check bool) "omega bitwise equal" true
          (serial.Wampde.Envelope.omega = parallel.Wampde.Envelope.omega);
        Alcotest.(check bool) "slices bitwise equal" true
          (serial.Wampde.Envelope.slices = parallel.Wampde.Envelope.slices));
  ]

let quasi_tests =
  [
    Alcotest.test_case "at constant control the n2 = 5 solve is the n2 = 1 orbit" `Quick
      (fun () ->
        (* the quasiperiodic WaMPDE and the orbit run the one periodic
           driver at n2 = 5 and n2 = 1; with nothing varying in t2 every
           slice must come back as the orbit.  The seed is the orbit
           moved off it (omega by 1 %, slice m scaled by 1 + m / 100), so
           Newton has to find its way back.  At the default tol 1e-8 the
           n2 = 5 answer sits 7e-10 off; at 1e-11 it sits 2e-11 off, the
           orbit's own accuracy *)
        let n1 = 15 and n2 = 5 in
        let orbit = vco_a_orbit ~n1 in
        let dae = Circuit.Vco.build (Circuit.Vco.default_params ~control:(fun _ -> 1.5) ()) in
        let grid = orbit.Steady.Oscillator.grid and omega = orbit.Steady.Oscillator.omega in
        let guess =
          {
            Wampde.Quasiperiodic.p2 = 40.;
            t2 = Array.init n2 (fun m -> 40. *. float_of_int m /. float_of_int n2);
            omega = Array.make n2 (1.01 *. omega);
            slices =
              Array.init n2 (fun m ->
                  Array.map (Array.map (fun x -> x *. (1. +. (float_of_int m /. 100.)))) grid);
          }
        in
        let sol =
          Wampde.Quasiperiodic.solve dae ~tol:1e-11
            ~options:(Wampde.Envelope.default_options ~n1 ()) ~p2:40. ~n2 ~guess ()
        in
        Array.iteri
          (fun m slice ->
            approx_tol 1e-9 (Printf.sprintf "omega, slice %d" m) omega
              sol.Wampde.Quasiperiodic.omega.(m);
            Array.iteri
              (fun j x ->
                Array.iteri
                  (fun i v -> approx_tol 1e-9 (Printf.sprintf "x(%d, %d).(%d)" j m i) v x.(i))
                  grid.(j))
              slice)
          sol.Wampde.Quasiperiodic.slices);
    Alcotest.test_case "VCO-A FM-quasiperiodic steady state" `Slow (fun () ->
        let dae, orbit = vco_a_setup () in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        let sol = Wampde.Quasiperiodic.from_orbit dae ~options ~p2:40. ~n2:15 ~init:orbit () in
        Alcotest.(check bool) "residual small" true
          (Wampde.Quasiperiodic.residual_norm dae ~options sol < 1e-7);
        (* omega is genuinely periodic and modulated *)
        let om = sol.Wampde.Quasiperiodic.omega in
        let omin = Array.fold_left Float.min infinity om in
        let omax = Array.fold_left Float.max neg_infinity om in
        Alcotest.(check bool) "fm present" true (omax /. omin > 1.5));
    Alcotest.test_case "quasiperiodic waveform recovery matches envelope" `Slow (fun () ->
        let dae, orbit = vco_a_setup () in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        let sol = Wampde.Quasiperiodic.from_orbit dae ~options ~p2:40. ~n2:15 ~init:orbit () in
        (* the recovered quasiperiodic waveform and the settled envelope's
           recovered waveform describe the same steady state: compare
           amplitude and frequency content over a slow period *)
        let times = Array.init 2001 (fun i -> 40. *. float_of_int i /. 2000.) in
        let w =
          Sigproc.Warp.make ~t2:sol.Wampde.Quasiperiodic.t2 ~omega:sol.Wampde.Quasiperiodic.omega
            ~slices:sol.Wampde.Quasiperiodic.slices ~p2:sol.Wampde.Quasiperiodic.p2 ()
        in
        let vq = Array.map (Sigproc.Warp.eval w ~component:0) times in
        let amp = Array.fold_left (fun a x -> Float.max a (Float.abs x)) 0. vq in
        (* the fully developed steady state peaks at ~2.5 V (the mechanical
           resonance is larger than during the first transient period) *)
        Alcotest.(check bool) "amplitude" true (amp > 2.2 && amp < 2.8);
        let crossings = Array.length (Sigproc.Zero_crossing.upward ~times vq) in
        (* mean frequency ~0.69 MHz -> about 27-28 cycles in 40 us *)
        Alcotest.(check bool) "cycle count" true (crossings >= 25 && crossings <= 30));
    Alcotest.test_case "krylov path equals dense path" `Slow (fun () ->
        let dae, orbit = vco_a_setup () in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        (* the path comes from [options.solver]; the GMRES solve count
           shows which one ran (the warm-up march is dense at 101
           unknowns either way) *)
        let solve solver =
          Wampde_obs.Metrics.with_isolated (fun () ->
              Wampde_obs.set_enabled true;
              let sol =
                Wampde.Quasiperiodic.from_orbit dae ~options:{ options with solver } ~p2:40.
                  ~n2:11 ~init:orbit ()
              in
              let count name = Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter name) in
              Alcotest.(check int) "damped Newton wins" 1 (count "newton.strategy.damped");
              (sol, count "gmres.solves"))
        in
        let dense, dense_solves = solve Structured.Dense in
        let krylov, krylov_solves = solve Structured.Krylov in
        Alcotest.(check int) "dense runs no GMRES" 0 dense_solves;
        Alcotest.(check bool) "krylov runs GMRES" true (krylov_solves > 0);
        approx_tol 1e-8 "mean freq (matrix-free)"
          (Wampde.Quasiperiodic.mean_frequency dense)
          (Wampde.Quasiperiodic.mean_frequency krylov));
  ]

(* [Quasiperiodic.from_orbit] on VCO-A at p2 = 40 through [solver],
   with metrics on: the answer and the isolated metrics as JSON *)
let quasi_metered ~solver ~n1 ~n2 =
  let dae, orbit = (Circuit.Vco.build (Circuit.Vco.vco_a ()), vco_a_orbit ~n1) in
  let options = Wampde.Envelope.default_options ~n1 ~solver () in
  Wampde_obs.Metrics.with_isolated (fun () ->
      Wampde_obs.set_enabled true;
      let sol = Wampde.Quasiperiodic.from_orbit dae ~options ~p2:40. ~n2 ~init:orbit () in
      (sol, Wampde_obs.Metrics.to_json ()))

(* the number at [path] in a [Metrics.to_json] object *)
let metric json path =
  let module Json = Wampde_obs.Json in
  match Json.parse json with
  | Error m -> Alcotest.failf "metrics JSON: %s" m
  | Ok j -> (
    match
      Option.bind
        (List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path)
        Json.to_num
    with
    | Some x -> x
    | None -> Alcotest.failf "no %s in the metrics" (String.concat "." path))

let slice_coupled_tests =
  [
    Alcotest.test_case "krylov at n2 = 25: bounded GMRES, no fallback, dense's omega" `Quick
      (fun () ->
        (* 1,525 unknowns: with each slice preconditioned on its own,
           every GMRES solve here hit its 300-iteration cap and fell back
           to dense LU *)
        let krylov, metrics = quasi_metered ~solver:Structured.Krylov ~n1:15 ~n2:25 in
        let get = metric metrics in
        Alcotest.(check (float 0.)) "dense fallbacks" 0.
          (get [ "counters"; "gmres.precond.fallbacks" ]);
        let worst = get [ "histograms"; "gmres.iterations_per_solve"; "max" ] in
        Alcotest.(check bool)
          (Printf.sprintf "%.0f GMRES iterations in the worst solve" worst)
          true (worst <= 30.);
        let dense, _ = quasi_metered ~solver:Structured.Dense ~n1:15 ~n2:25 in
        approx_tol 1e-8 "mean omega"
          (Wampde.Quasiperiodic.mean_frequency dense)
          (Wampde.Quasiperiodic.mean_frequency krylov));
    Alcotest.test_case "a krylov quasiperiodic solve is bitwise the same at jobs 1 and 2" `Quick
      (fun () ->
        (* the wavenumber blocks of the slice-coupled preconditioner
           factor on the pool *)
        let run jobs =
          Test_par.with_jobs jobs (fun () -> quasi_metered ~solver:Structured.Krylov ~n1:15 ~n2:7)
        in
        let serial, _ = run 1 and parallel, metrics = run 2 in
        let regions = metric metrics [ "counters"; "pool.runs" ] in
        Alcotest.(check bool) (Printf.sprintf "%.0f pool regions at jobs 2" regions) true
          (regions > 0.);
        Alcotest.(check bool) "omega bitwise equal" true
          (serial.Wampde.Quasiperiodic.omega = parallel.Wampde.Quasiperiodic.omega);
        Alcotest.(check bool) "slices bitwise equal" true
          (serial.Wampde.Quasiperiodic.slices = parallel.Wampde.Quasiperiodic.slices));
  ]

(* [Quasiperiodic.from_orbit] on VCO-A (slow period [p2], default the
   control period 40), under the fault spec [faults] when given: its
   answer, or the exception it raised, and its refinement count *)
let from_orbit_counted ?faults ?(p2 = 40.) ~n1 ~n2 () =
  let dae, orbit = (Circuit.Vco.build (Circuit.Vco.vco_a ()), vco_a_orbit ~n1) in
  let options = Wampde.Envelope.default_options ~n1 () in
  let run () = Wampde.Quasiperiodic.from_orbit dae ~options ~p2 ~n2 ~init:orbit () in
  Wampde_obs.Metrics.with_isolated (fun () ->
      Wampde_obs.set_enabled true;
      let sol =
        match match faults with None -> run () | Some spec -> Fault.with_armed spec run with
        | sol -> Ok sol
        | exception e -> Error e
      in
      (sol, Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter "quasiperiodic.refinements")))

(* the oracle: the solve from 5 slow periods at 0.5, on the same inputs *)
let long_start ?(p2 = 40.) ~n1 ~n2 () =
  Testkit.quasi_long_start
    (Circuit.Vco.build (Circuit.Vco.vco_a ()))
    ~options:(Wampde.Envelope.default_options ~n1 ())
    ~p2 ~n2 ~init:(vco_a_orbit ~n1)

let answer what = function
  | Ok sol -> sol
  | Error e -> Alcotest.failf "%s raised %s" what (Printexc.to_string e)

(* every omega and state of [sol] within 1e-10 of [long]'s (relative,
   absolute below 1) *)
let check_close what (sol : Wampde.Quasiperiodic.solution)
    (long : Wampde.Quasiperiodic.solution) =
  let close which a b =
    if Float.abs (a -. b) > 1e-10 *. Float.max (Float.abs b) 1. then
      Alcotest.failf "%s %s: %.17g, long start %.17g" what which a b
  in
  Array.iteri
    (fun m om ->
      close (Printf.sprintf "omega %d" m) sol.omega.(m) om;
      Array.iteri
        (fun j x ->
          Array.iteri
            (fun i v -> close (Printf.sprintf "x(%d, %d).(%d)" j m i) sol.slices.(m).(j).(i) v)
            x)
        long.slices.(m))
    long.omega

let from_orbit_tests =
  [
    Alcotest.test_case "the short start reaches the long start's steady state" `Slow (fun () ->
        (* 3 slow periods at a slice-aligned step against 5 at 0.5: the
           same periodic Newton answer, to 1e-10 in every omega and
           state, on the matrix-free path (427 to 1,515 unknowns); the
           first march succeeds *)
        List.iter
          (fun (n1, n2) ->
            let what = Printf.sprintf "(%d, %d)" n1 n2 in
            let sol, refinements = from_orbit_counted ~n1 ~n2 () in
            Alcotest.(check int) (what ^ ": no refinement") 0 refinements;
            check_close what (answer what sol) (long_start ~n1 ~n2 ()))
          [ (15, 7); (25, 11); (25, 15) ]);
    Alcotest.test_case "a failed short start returns no answer: a typed Solve_failure" `Quick
      (fun () ->
        (* the periodic solve is made to fail: its first linear solve
           and its second NaN probe, counted in the quasiperiodic scope
           only.  The warm-up march succeeded, so nothing is refined and
           the periodic solve's failure propagates *)
        match
          from_orbit_counted ~faults:"quasiperiodic:linsolve@1,quasiperiodic:nan@2" ~n1:15 ~n2:7
            ()
        with
        | Error (Wampde.Quasiperiodic.Solve_failure { Nonlin.Newton.converged; _ }), refinements ->
          Alcotest.(check bool) "not converged" false converged;
          Alcotest.(check int) "no refinement" 0 refinements
        | Error e, _ -> Alcotest.failf "raised %s" (Printexc.to_string e)
        | Ok _, _ -> Alcotest.fail "returned an answer");
    Alcotest.test_case "three control periods as p2: one refinement, the long start's answer"
      `Quick (fun () ->
        (* p2 = 120, as a serve job may ask: the slice-aligned step is
           120/21, too coarse for VCO-A's envelope (omega turns negative
           at t2 = 57.1), so the warm-up is refined once to 60/21 *)
        let one, refinements = from_orbit_counted ~n1:15 ~n2:7 () in
        Alcotest.(check int) "p2 = 40: no refinement" 0 refinements;
        let one = answer "p2 = 40" one in
        List.iter
          (fun n2 ->
            let what = Printf.sprintf "(120, %d)" n2 in
            let sol, refinements = from_orbit_counted ~p2:120. ~n1:15 ~n2 () in
            Alcotest.(check int) (what ^ ": one refinement") 1 refinements;
            let sol = answer what sol in
            check_close what sol (long_start ~p2:120. ~n1:15 ~n2 ());
            (* on 21 slices the answer is the p2 = 40, n2 = 7 steady state
               three times over: slice m sits at t2 = 40 (m mod 7) / 7 of
               a control period.  Seven slices over three periods resolve
               the forcing only as their third harmonic, a different
               discretization (mean omega 0.69313 against 0.69007) *)
            if n2 = 21 then
              Array.iteri
                (fun m om ->
                  let om1 = one.Wampde.Quasiperiodic.omega.(m mod 7) in
                  if Float.abs (om -. om1) > 1e-10 *. om1 then
                    Alcotest.failf "omega %d: %.17g, one period %.17g" m om om1)
                sol.Wampde.Quasiperiodic.omega)
          [ 7; 21 ]);
    Alcotest.test_case "five slices at p2 = 40 fail with a typed error, no refinement" `Quick
      (fun () ->
        (* n2 = 5 is below what the periodic Newton resolves on VCO-A
           (n2 = 3 and 7 converge): the warm-up march succeeds and the
           periodic solve's Solve_failure propagates, never an answer *)
        match from_orbit_counted ~n1:15 ~n2:5 () with
        | Error (Wampde.Quasiperiodic.Solve_failure { Nonlin.Newton.converged; _ }), refinements ->
          Alcotest.(check bool) "not converged" false converged;
          Alcotest.(check int) "no refinement" 0 refinements
        | Error e, _ -> Alcotest.failf "raised %s" (Printexc.to_string e)
        | Ok _, _ -> Alcotest.fail "n2 = 5 returned an answer");
  ]

let special_case_tests =
  [
    Alcotest.test_case "eq (24) special cases: constant omega0 = w2 is periodic" `Quick
      (fun () ->
        (* mode locking / period multiplication as representational special
           cases of the WaMPDE solution form (paper Section 4.1): build
           x(t) from eq. (24) with omega(t) == omega0 and check periodicity *)
        let w2 = 3. in
        let x_of_t ~w0 t = cos ((two_pi *. w0 *. t) +. 0.3) *. (1. +. (0.5 *. cos (two_pi *. w2 *. t))) in
        (* omega0 = w2: response periodic with the forcing period 1/w2 *)
        let locked t = x_of_t ~w0:w2 t in
        approx_tol 1e-9 "entrained" (locked 0.123) (locked (0.123 +. (1. /. w2)));
        (* omega0 = w2 / 2: period-2 multiplication *)
        let divided t = x_of_t ~w0:(w2 /. 2.) t in
        approx_tol 1e-9 "period doubled" (divided 0.04) (divided (0.04 +. (2. /. w2)));
        Alcotest.(check bool) "not 1-periodic" true
          (Float.abs (divided 0.04 -. divided (0.04 +. (1. /. w2))) > 1e-3));
  ]

let suites =
  [
    ("wampde.phase", phase_tests);
    ("wampde.envelope", envelope_tests);
    ("wampde.quasiperiodic", quasi_tests @ slice_coupled_tests);
    ("wampde.from_orbit", from_orbit_tests);
    ("wampde.special_cases", special_case_tests);
  ]
