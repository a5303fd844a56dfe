(* Coverage sweep over small program-path entry points the module
   suites leave out: vector utilities, complex helpers, window and
   waveform accessors. *)
open Linalg
open Testkit

let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

let tests =
  [
    Alcotest.test_case "vec small utilities" `Quick (fun () ->
        approx_tol 1e-12 "mean" 2. (Vec.mean [| 1.; 2.; 3. |]);
        let v = [| 1.; 2. |] in
        Vec.scale_inplace 3. v;
        approx_tol 1e-12 "scale_inplace" 6. v.(1);
        Alcotest.(check bool) "map2" true
          (Vec.approx_equal (Vec.map2 ( *. ) [| 2.; 3. |] [| 4.; 5. |]) [| 8.; 15. |]));
    Alcotest.test_case "cx helpers" `Quick (fun () ->
        let z = Cx.polar 2. (Float.pi /. 3.) in
        approx_tol 1e-12 "modulus" 2. (Complex.norm z);
        approx_tol 1e-12 "scaled modulus" 3. (Complex.norm (Cx.scale 1.5 z));
        let v = Cx.Cvec.of_real [| 1.; -2. |] in
        Alcotest.(check bool) "real part" true
          (Vec.approx_equal (Array.map Cx.re v) [| 1.; -2. |] && Array.for_all (fun c -> Cx.im c = 0.) v);
        approx_tol 1e-12 "norm_inf" 2. (Cx.Cvec.norm_inf v));
    Alcotest.test_case "spectrum hann window endpoints" `Quick (fun () ->
        let w = Fourier.Spectrum.hann 32 in
        approx_tol 1e-12 "start" 0. w.(0);
        approx_tol 1e-12 "end" 0. w.(31);
        Alcotest.(check bool) "peak in middle" true (w.(16) > 0.9));
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
        let crossings = Array.length (Sigproc.Zero_crossing.upward ~times values) in
        Alcotest.(check bool) "cycles" true (crossings >= 2 && crossings <= 4));
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
        let w = Mpde.warping res in
        let xhat ~t1 ~t2 = Sigproc.Warp.xhat w ~component:0 ~t1:(t1 /. p1) t2 in
        (* periodic in t1 *)
        approx_tol 1e-9 "wrap" (xhat ~t1:0.1 ~t2:0.5) (xhat ~t1:(0.1 +. p1) ~t2:0.5);
        (* the last slice holds past the run *)
        approx_tol 0. "clamp" (xhat ~t1:0.1 ~t2:1.) (xhat ~t1:0.1 ~t2:3.);
        (* the diagonal path reads xhat at t mod p1 *)
        approx_tol 1e-12 "diagonal" (xhat ~t1:0.1 ~t2:0.6)
          (Sigproc.Warp.eval w ~component:0 0.6));
  ]

let suites = [ ("api_coverage", tests) ]
