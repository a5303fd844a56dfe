(* Coverage sweep over smaller public API entry points not exercised
   elsewhere: printers, accessors, edge behaviours. *)
open Linalg

let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

let tests =
  [
    Alcotest.test_case "vec/mat printers produce readable output" `Quick (fun () ->
        let vs = Format.asprintf "%a" Vec.pp [| 1.; -2.5 |] in
        Alcotest.(check bool) "vec" true (String.length vs > 0 && String.contains vs '1');
        let ms = Format.asprintf "%a" Mat.pp (Mat.identity 2) in
        Alcotest.(check bool) "mat" true (String.length ms > 0));
    Alcotest.test_case "vec small utilities" `Quick (fun () ->
        approx_tol 1e-12 "sum" 6. (Vec.sum [| 1.; 2.; 3. |]);
        approx_tol 1e-12 "mean" 2. (Vec.mean [| 1.; 2.; 3. |]);
        let dst = Vec.zeros 2 in
        Vec.blit ~src:[| 5.; 6. |] ~dst;
        approx_tol 1e-12 "blit" 6. dst.(1);
        let v = [| 1.; 2. |] in
        Vec.scale_inplace 3. v;
        approx_tol 1e-12 "scale_inplace" 6. v.(1);
        Alcotest.(check bool) "map2" true
          (Vec.approx_equal (Vec.map2 ( *. ) [| 2.; 3. |] [| 4.; 5. |]) [| 8.; 15. |]));
    Alcotest.test_case "mat axpy and diag" `Quick (fun () ->
        let y = Mat.zeros 2 2 in
        Mat.axpy ~a:2. ~x:(Mat.identity 2) y;
        approx_tol 1e-12 "axpy" 2. y.(0).(0);
        approx_tol 1e-12 "frobenius" (2. *. sqrt 2.) (Mat.frobenius y);
        let d = Mat.diag [| 1.; 2. |] in
        approx_tol 1e-12 "diag" 2. d.(1).(1));
    Alcotest.test_case "cx helpers" `Quick (fun () ->
        let z = Cx.polar 2. (Float.pi /. 3.) in
        approx_tol 1e-12 "modulus" 2. (Complex.norm z);
        Alcotest.(check bool) "approx_equal" true (Cx.approx_equal z z);
        let v = Cx.Cvec.of_real [| 1.; 2. |] in
        Alcotest.(check bool) "real part" true
          (Vec.approx_equal (Cx.Cvec.real_part v) [| 1.; 2. |]);
        let s = Cx.Cvec.scale (Cx.cx 0. 1.) v in
        approx_tol 1e-12 "rotated to imag" 1. (Cx.im s.(0));
        let sum = Cx.Cvec.add v v and diff = Cx.Cvec.sub v v in
        approx_tol 1e-12 "add" 4. (Cx.re sum.(1));
        approx_tol 1e-12 "sub" 0. (Cx.Cvec.norm_inf diff);
        let m = Cx.Cmat.identity 2 in
        let mm = Cx.Cmat.mul m m in
        approx_tol 1e-12 "cmat mul" 1. (Cx.re mm.(1).(1)));
    Alcotest.test_case "spectrum hann window endpoints" `Quick (fun () ->
        let w = Fourier.Spectrum.hann 32 in
        approx_tol 1e-12 "start" 0. w.(0);
        approx_tol 1e-12 "end" 0. w.(31);
        Alcotest.(check bool) "peak in middle" true (w.(16) > 0.9));
    Alcotest.test_case "interp1d span and pchip endpoints" `Quick (fun () ->
        let f = Sigproc.Interp1d.create [| 0.; 1.; 4. |] [| 2.; 3.; 5. |] in
        let a, b = Sigproc.Interp1d.span f in
        approx_tol 1e-12 "span lo" 0. a;
        approx_tol 1e-12 "span hi" 4. b;
        approx_tol 1e-12 "pchip at node" 3. (Sigproc.Interp1d.eval_pchip f 1.));
    Alcotest.test_case "warp span and omega accessor" `Quick (fun () ->
        let w = Sigproc.Warp.of_function ~t0:1. ~t1:3. ~n:21 (fun t -> t) in
        let a, b = Sigproc.Warp.span w in
        approx_tol 1e-12 "lo" 1. a;
        approx_tol 1e-12 "hi" 3. b;
        approx_tol 1e-9 "omega mid" 2. (Sigproc.Warp.omega w 2.));
    Alcotest.test_case "bivariate max_abs and of_univariate" `Quick (fun () ->
        let b =
          Sigproc.Bivariate.of_univariate
            ~y:(fun t1 t2 -> 3. *. sin (two_pi *. t1) *. cos (two_pi *. t2))
            ~p1:1. ~p2:1. ~n1:16 ~n2:16
        in
        Alcotest.(check bool) "max ~3" true (Sigproc.Bivariate.max_abs b > 2.5));
    Alcotest.test_case "phase describe strings" `Quick (fun () ->
        Alcotest.(check bool) "derivative" true
          (String.length (Wampde.Phase.describe (Wampde.Phase.Derivative 0)) > 0);
        Alcotest.(check bool) "fourier" true
          (String.length
             (Wampde.Phase.describe (Wampde.Phase.Fourier { component = 1; harmonic = 2 }))
          > 0));
    Alcotest.test_case "envelope waveform_samples covers the run" `Quick (fun () ->
        let p = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let dae = Circuit.Vco.build p in
        let orbit =
          Steady.Oscillator.find dae ~n1:25 ~period_hint:1.333 (Circuit.Vco.initial_state p)
        in
        let options = Wampde.Envelope.default_options ~n1:25 () in
        let res = Wampde.Envelope.simulate dae ~options ~t2_end:4. ~h2:0.5 ~init:orbit in
        let times, values = Wampde.Envelope.waveform_samples res ~component:0 ~per_cycle:16 in
        Alcotest.(check bool) "enough samples" true (Array.length times > 40);
        approx_tol 1e-9 "ends at t2_end" 4. times.(Array.length times - 1);
        (* around 3 cycles in 4 us at 0.748 MHz *)
        let crossings = Sigproc.Zero_crossing.cycle_count ~times values in
        Alcotest.(check bool) "cycles" true (crossings >= 2 && crossings <= 4));
    Alcotest.test_case "dae residual helper" `Quick (fun () ->
        let dae = Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.x.(0) |]) () in
        let r = Dae.residual dae ~t:0. ~xdot:[| -2. |] [| 2. |] in
        approx_tol 1e-12 "consistent" 0. r.(0));
    Alcotest.test_case "fft is_power_of_two" `Quick (fun () ->
        Alcotest.(check bool) "8" true (Fourier.Fft.is_power_of_two 8);
        Alcotest.(check bool) "6" false (Fourier.Fft.is_power_of_two 6);
        Alcotest.(check bool) "0" false (Fourier.Fft.is_power_of_two 0));
    Alcotest.test_case "mpde eval_bivariate clamps and wraps" `Quick (fun () ->
        let p1 = 0.5 in
        let sys =
          {
            Mpde.dae = Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.x.(0) |]) ();
            p1;
            b_fast = (fun ~t1 ~t2:_ -> [| -.sin (two_pi *. t1 /. p1) |]);
          }
        in
        let init = Mpde.periodic_initial sys ~n1:9 ~guess:(Array.init 9 (fun _ -> [| 0. |])) in
        let res = Mpde.simulate sys ~n1:9 ~t2_end:1. ~h2:0.25 ~init in
        (* periodic in t1 *)
        approx_tol 1e-9 "wrap"
          (Mpde.eval_bivariate res ~component:0 ~t1:0.1 ~t2:0.5)
          (Mpde.eval_bivariate res ~component:0 ~t1:(0.1 +. p1) ~t2:0.5));
  ]

let suites = [ ("api_coverage", tests) ]
