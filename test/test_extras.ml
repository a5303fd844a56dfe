(* Tests for the extended numerical toolkit: polynomial roots,
   eigenvalues and Floquet analysis. *)
open Linalg
open Testkit

let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

let poly_tests =
  [
    Alcotest.test_case "roots of (x-1)(x-2)(x-3)" `Quick (fun () ->
        let c = [| -6.; 11.; -6.; 1. |] in
        let rs = Poly.roots c in
        let mags = Array.map Cx.re rs in
        Array.sort compare mags;
        approx_tol 1e-8 "r1" 1. mags.(0);
        approx_tol 1e-8 "r2" 2. mags.(1);
        approx_tol 1e-8 "r3" 3. mags.(2));
    Alcotest.test_case "complex conjugate pair" `Quick (fun () ->
        (* x^2 + 1: roots +-i *)
        let rs = Poly.roots [| 1.; 0.; 1. |] in
        let ims = Array.map Cx.im rs in
        Array.sort compare ims;
        approx_tol 1e-9 "imag -1" (-1.) ims.(0);
        approx_tol 1e-9 "imag +1" 1. ims.(1));
    Alcotest.test_case "from_roots roundtrip" `Quick (fun () ->
        let c = [| 2.; -3.; 0.5; 1. |] in
        let rs = Poly.roots c in
        let c' = Poly.from_roots rs in
        (* monic version of c *)
        for k = 0 to 3 do
          approx_tol 1e-7 "coef" c.(k) c'.(k)
        done);
  ]

let eig_tests =
  [
    Alcotest.test_case "char poly of companion-like 2x2" `Quick (fun () ->
        (* [[0, -c0], [1, -c1]] has char poly x^2 + c1 x + c0 = (x + 2)(x + 3) *)
        let a = [| [| 0.; -6. |]; [| 1.; -5. |] |] in
        let es = Array.map Cx.re (Eig.eigenvalues a) in
        Array.sort compare es;
        approx_tol 1e-10 "root -3" (-3.) es.(0);
        approx_tol 1e-10 "root -2" (-2.) es.(1));
    Alcotest.test_case "eigenvalues of diagonal matrix" `Quick (fun () ->
        let a = Mat.diag [| 3.; -1.; 7. |] in
        let es = Array.map Cx.re (Eig.eigenvalues a) in
        Array.sort compare es;
        approx_tol 1e-8 "e1" (-1.) es.(0);
        approx_tol 1e-8 "e2" 3. es.(1);
        approx_tol 1e-8 "e3" 7. es.(2));
    Alcotest.test_case "rotation matrix has complex eigenvalues on unit circle" `Quick
      (fun () ->
        let th = 0.7 in
        let a = [| [| cos th; -.sin th |]; [| sin th; cos th |] |] in
        let es = Eig.eigenvalues a in
        Array.iter (fun z -> approx_tol 1e-9 "modulus" 1. (Complex.norm z)) es;
        approx_tol 1e-9 "angle" th (Float.abs (Complex.arg es.(0))));
    Alcotest.test_case "double eigenvalues of 2x2 matrices" `Quick (fun () ->
        (* Durand-Kerner meets a double root only linearly and to about
           sqrt eps; a defective and a diagonal matrix *)
        List.iter
          (fun (name, a, lambda) ->
            Array.iter
              (fun z -> approx_tol 1e-6 name 0. (Complex.norm (Complex.sub z (Cx.cx lambda 0.))))
              (Eig.eigenvalues a))
          [
            ("Jordan block", [| [| 1.; 1. |]; [| 0.; 1. |] |], 1.);
            ("2 I", [| [| 2.; 0. |]; [| 0.; 2. |] |], 2.);
            ("a defective non-triangular matrix", [| [| 0.5; 0.25 |]; [| -1.; 1.5 |] |], 1.);
          ]);
    Alcotest.test_case "a non-finite matrix raises Poly.No_convergence" `Quick (fun () ->
        match Eig.eigenvalues [| [| nan; 0. |]; [| 0.; 1. |] |] with
        | _ -> Alcotest.fail "returned eigenvalues"
        | exception Poly.No_convergence _ -> ());
    Alcotest.test_case "spectral radius" `Quick (fun () ->
        let rho =
          Array.fold_left
            (fun acc z -> Float.max acc (Complex.norm z))
            0.
            (Eig.eigenvalues (Mat.diag [| 3.; -7.; 2. |]))
        in
        approx_tol 1e-8 "rho" 7. rho);
  ]

let floquet_tests =
  [
    Alcotest.test_case "van der Pol multiplier matches theory" `Quick (fun () ->
        (* for vdP, the nontrivial multiplier is exp(integral of div f)
           = exp(mu T - mu int x^2 dt); for mu = 1, ~8.4e-4 *)
        let mu = 1.0 in
        let vdp =
          Dae.of_ode ~dim:2
            ~rhs:(fun ~t:_ x -> [| x.(1); (mu *. (1. -. (x.(0) *. x.(0))) *. x.(1)) -. x.(0) |])
            ()
        in
        let orbit = Steady.Oscillator.find vdp ~n1:41 ~period_hint:6.6 [| 2.; 0. |] in
        let r = Steady.Floquet.analyze_orbit vdp orbit in
        Alcotest.(check bool) "stable" true r.Steady.Floquet.stable;
        (* trivial multiplier close to 1 *)
        let trivial = r.Steady.Floquet.multipliers.(r.Steady.Floquet.trivial_index) in
        approx_tol 1e-2 "trivial" 1. (Complex.norm trivial);
        Alcotest.(check bool) "second multiplier tiny" true
          (r.Steady.Floquet.largest_nontrivial < 0.01));
    Alcotest.test_case "the diode VCO orbit has multipliers, not an exception" `Quick (fun () ->
        (* its algebraic rows give trapezoidal multipliers (-1)^steps,
           a double root near the trivial 1 at an even step count *)
        let p = Circuit.Diode_vco.default_params ~control:(fun _ -> 3.) () in
        let dae = Circuit.Diode_vco.build p in
        let orbit =
          Steady.Oscillator.find dae ~n1:31 ~period_hint:1.0
            (Circuit.Diode_vco.initial_state p ~at:0.)
        in
        List.iter
          (fun steps_per_period ->
            let r = Steady.Floquet.analyze_orbit dae ~steps_per_period orbit in
            let trivial = r.Steady.Floquet.multipliers.(r.Steady.Floquet.trivial_index) in
            approx_tol 1e-2 (Printf.sprintf "%d steps: trivial" steps_per_period) 1.
              (Complex.norm trivial);
            Alcotest.(check bool)
              (Printf.sprintf "%d steps: not shown stable" steps_per_period)
              false r.Steady.Floquet.stable)
          [ 50; 100; 400 ]);
    Alcotest.test_case "linear oscillator is not asymptotically stable" `Quick (fun () ->
        let w = two_pi in
        let lc = Dae.of_ode ~dim:2 ~rhs:(fun ~t:_ x -> [| x.(1); -.(w *. w) *. x.(0) |]) () in
        let r = Steady.Floquet.analyze lc ~period:1. [| 1.; 0. |] in
        Alcotest.(check bool) "neutral" false r.Steady.Floquet.stable;
        Array.iter
          (fun z -> approx_tol 1e-3 "unit circle" 1. (Complex.norm z))
          r.Steady.Floquet.multipliers);
    Alcotest.test_case "monodromy of linear system is the exact exponential" `Quick (fun () ->
        (* x' = -2x: monodromy over T is e^{-2T} *)
        let dae = Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -2. *. x.(0) |]) () in
        let m =
          (Steady.Floquet.analyze dae ~period:1. ~steps_per_period:2000 [| 1. |]).Steady.Floquet.monodromy
        in
        approx_tol 1e-5 "e^-2" (exp (-2.)) m.(0).(0));
  ]

let suites =
  [
    ("linalg.poly", poly_tests);
    ("linalg.eig", eig_tests);
    ("steady.floquet", floquet_tests);
  ]
