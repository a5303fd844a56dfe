(* Tests for signal processing: zero crossings, bivariate forms and
   the eq. (17) recovery (time warping). *)
open Testkit
open Sigproc

let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

let zero_crossing_tests =
  [
    Alcotest.test_case "sine crossings at multiples of period" `Quick (fun () ->
        let n = 10_000 in
        let times = Vec.linspace 0. 5. n in
        let x = Vec.map (fun t -> sin (two_pi *. t)) times in
        (* upward crossings at t = 1, 2, 3, 4 (t = 0 starts at zero,
           t = 5 ends at zero from below) *)
        let c = Zero_crossing.upward ~times x in
        Alcotest.(check int) "count" 4 (Array.length c);
        approx_tol 1e-4 "first" 1. c.(0);
        for k = 1 to Array.length c - 1 do
          approx_tol 1e-4 "period" 1. (c.(k) -. c.(k - 1))
        done);
    Alcotest.test_case "instantaneous frequency of chirp increases" `Quick (fun () ->
        (* phase = t + t^2/4 -> frequency 1 + t/2 *)
        let n = 40_000 in
        let times = Vec.linspace 0. 10. n in
        let x = Vec.map (fun t -> sin (two_pi *. (t +. (t *. t /. 4.)))) times in
        let tm, f = Zero_crossing.instantaneous_frequency ~times x in
        Alcotest.(check bool) "got cycles" true (Array.length f > 20);
        Array.iteri
          (fun i t -> approx_tol 0.05 "freq tracks" (1. +. (t /. 2.)) f.(i))
          tm);
    Alcotest.test_case "phase error between shifted sines" `Quick (fun () ->
        let n = 20_000 in
        let times = Vec.linspace 0. 10. n in
        let x = Vec.map (fun t -> sin (two_pi *. t)) times in
        let y = Vec.map (fun t -> sin (two_pi *. (t -. 0.1))) times in
        let pe = Zero_crossing.max_abs_phase_error ~reference:(times, x) ~test:(times, y) in
        approx_tol 1e-3 "0.1 cycle" 0.1 pe);
  ]

let bivariate_tests =
  [
    Alcotest.test_case "paper example: fig 1/2 bivariate of 2-tone signal" `Quick (fun () ->
        (* yhat(t1,t2) = sin(2 pi t1 / T1) sin(2 pi t2 / T2) on 15x15 grid *)
        let t1p = 0.02 and t2p = 1.0 in
        let b =
          Bivariate.sample
            ~f:(fun t1 t2 -> sin (two_pi *. t1 /. t1p) *. sin (two_pi *. t2 /. t2p))
            ~p1:t1p ~p2:t2p ~n1:15 ~n2:15
        in
        Alcotest.(check int) "225 samples" 225 (Bivariate.sample_count b);
        (* diagonal recovers y(t) (paper's 1.952 s example, eq after (2)) *)
        let y t = sin (two_pi *. t /. t1p) *. sin (two_pi *. t /. t2p) in
        approx_tol 0.05 "recover y(1.952)" (y 1.952) (Bivariate.diagonal b 1.952));
    Alcotest.test_case "eval wraps periodically" `Quick (fun () ->
        let b = Bivariate.sample ~f:(fun t1 t2 -> t1 +. (10. *. t2) -. (t1 *. t2)) ~p1:1. ~p2:1. ~n1:8 ~n2:8 in
        approx_tol 1e-9 "wrap"
          (Bivariate.warped_diagonal b ~phi:(fun _ -> 0.25) 0.5)
          (Bivariate.warped_diagonal b ~phi:(fun _ -> 1.25) (-0.5)));
    Alcotest.test_case "sawtooth path stays in box" `Quick (fun () ->
        let pts = Bivariate.sawtooth_path ~p1:0.02 ~p2:1. ~t_max:3. 1000 in
        Array.iter
          (fun (a, b) ->
            Alcotest.(check bool) "in box" true (a >= 0. && a <= 0.02 && b >= 0. && b <= 1.))
          pts);
    Alcotest.test_case "warped diagonal matches closed form (paper eq 6-8)" `Quick (fun () ->
        (* xhat2(t1,t2) = cos(2 pi t1), phi(t) = f0 t + k/(2 pi) cos(2 pi f2 t) *)
        let f0 = 100. and f2 = 2. in
        let k = 8. *. Float.pi in
        let b = Bivariate.sample ~f:(fun t1 _ -> cos (two_pi *. t1)) ~p1:1. ~p2:(1. /. f2) ~n1:64 ~n2:8 in
        let phi t = (f0 *. t) +. (k /. two_pi *. cos (two_pi *. f2 *. t)) in
        let x t = cos ((two_pi *. f0 *. t) +. (k *. cos (two_pi *. f2 *. t))) in
        for i = 0 to 20 do
          let t = 0.013 *. float_of_int i in
          approx_tol 0.01 "fm recovery" (x t) (Bivariate.warped_diagonal b ~phi t)
        done);
    Alcotest.test_case "undulation count: warped FM << unwarped FM (fig 5 vs 6)" `Quick
      (fun () ->
        let f0 = 1.0e6 and f2 = 2.0e4 in
        let k = 8. *. Float.pi in
        let unwarped =
          Bivariate.sample
            ~f:(fun t1 t2 -> cos ((two_pi *. f0 *. t1) +. (k *. cos (two_pi *. f2 *. t2))))
            ~p1:(1. /. f0) ~p2:(1. /. f2) ~n1:15 ~n2:25
        in
        let warped =
          Bivariate.sample ~f:(fun t1 _ -> cos (two_pi *. t1)) ~p1:1. ~p2:(1. /. f2) ~n1:15 ~n2:25
        in
        Alcotest.(check bool) "warped much smoother" true
          (Bivariate.undulation_count warped * 4 < Bivariate.undulation_count unwarped));
  ]

(* [phi_exact knots omega t] integrates the piecewise-linear rate
   through [(knots, omega)] piece by piece with the midpoint rule,
   exact for a linear integrand *)
let phi_exact knots omega t =
  let acc = ref 0. in
  for i = 0 to Array.length knots - 2 do
    let a = knots.(i) and b = Float.min t knots.(i + 1) in
    if b > a then acc := !acc +. ((b -. a) *. linear_interp knots omega (0.5 *. (a +. b)))
  done;
  !acc

(* [bisect f lo hi target] solves the increasing [f t = target] *)
let bisect f lo hi target =
  let lo = ref lo and hi = ref hi in
  for _ = 1 to 200 do
    let mid = 0.5 *. (!lo +. !hi) in
    if f mid < target then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

let invalid name f =
  Alcotest.(check bool) name true (try ignore (f ()); false with Invalid_argument _ -> true)

let warp_tests =
  [
    Alcotest.test_case "constant rate warping is linear" `Quick (fun () ->
        let w = Testkit.warp_of_function ~t0:0. ~t1:10. ~n:101 (fun _ -> 2.) in
        approx_tol 1e-9 "phi(3)" 6. (Warp.phi w 3.);
        approx_tol 1e-9 "total" 20. (Warp.phi w 10.));
    Alcotest.test_case "paper eq (7): phi of ideal FM has periodic derivative" `Quick
      (fun () ->
        let f0 = 10. and f2 = 1. and k = 4. *. Float.pi in
        (* omega(t) = f0 - k f2 sin(2 pi f2 t) / ... in cycles: f(t) of eq (4) *)
        let omega t = f0 -. (k *. f2 *. sin (two_pi *. f2 *. t) /. two_pi) in
        let w = Testkit.warp_of_function ~t0:0. ~t1:2. ~n:4001 omega in
        (* phi(t) - f0 t must be 1/f2-periodic: compare t = 0.3 and 1.3 *)
        let p t = Warp.phi w t -. (f0 *. t) in
        approx_tol 1e-6 "periodic part" (p 0.3) (p 1.3));
    Alcotest.test_case "nonpositive rate rejected" `Quick (fun () ->
        invalid "zero" (fun () ->
            Warp.make ~t2:[| 0.; 1. |] ~omega:[| 1.; 0. |] ~slices:(cos_slices 2) ());
        invalid "negative" (fun () ->
            Warp.make ~t2:[| 0.; 1. |] ~omega:[| -1.; 1. |] ~slices:(cos_slices 2) ());
        invalid "nan" (fun () ->
            Warp.make ~t2:[| 0.; 1. |] ~omega:[| 1.; nan |] ~slices:(cos_slices 2) ()));
    Alcotest.test_case "linear interpolation exact on lines" `Quick (fun () ->
        (* a rate linear in t is its own interpolant: phi = t + t^2 / 4
           between knots, and phi continues at the end rate past them *)
        let w = Testkit.warp_of_function ~t0:0. ~t1:2. ~n:3 (fun t -> 1. +. (0.5 *. t)) in
        approx_tol 1e-12 "mid" (0.5 +. (0.25 /. 4.)) (Warp.phi w 0.5);
        approx_tol 1e-12 "knot" 3. (Warp.phi w 2.);
        approx_tol 1e-12 "past the end" (3. +. (2. *. 0.5)) (Warp.phi w 2.5);
        approx_tol 1e-12 "before the start" (-0.5) (Warp.phi w (-0.5)));
    Alcotest.test_case "cumulative integral of constant" `Quick (fun () ->
        let w = Testkit.warp_of_function ~t0:0. ~t1:2. ~n:21 (fun _ -> 3.) in
        approx_tol 1e-12 "end" 6. (Warp.phi w 2.));
    Alcotest.test_case "non-increasing times rejected" `Quick (fun () ->
        invalid "repeated time" (fun () ->
            Warp.make ~t2:[| 0.; 0. |] ~omega:[| 1.; 2. |] ~slices:(cos_slices 2) ()));
    Alcotest.test_case "mismatched or malformed inputs rejected" `Quick (fun () ->
        let slices = cos_slices 2 in
        invalid "omega length" (fun () -> Warp.make ~t2:[| 0.; 1. |] ~omega:[| 1. |] ~slices ());
        invalid "slice count" (fun () ->
            Warp.make ~t2:[| 0.; 1. |] ~omega:[| 1.; 1. |] ~slices:(cos_slices 3) ());
        invalid "one slice without p2" (fun () ->
            Warp.make ~t2:[| 0. |] ~omega:[| 1. |] ~slices:(cos_slices 1) ());
        invalid "even n1" (fun () ->
            let slices = Array.make 2 [| [| 0. |]; [| 1. |] |] in
            Warp.make ~t2:[| 0.; 1. |] ~omega:[| 1.; 1. |] ~slices ());
        invalid "p2 inside the slices" (fun () ->
            Warp.make ~t2:[| 0.; 1. |] ~omega:[| 1.; 1. |] ~slices ~p2:1. ());
        invalid "periodic slices not from 0" (fun () ->
            Warp.make ~t2:[| 0.5; 1. |] ~omega:[| 1.; 1. |] ~slices ~p2:2. ());
        let w = Warp.make ~t2:[| 0.; 1. |] ~omega:[| 1.; 1. |] ~slices () in
        invalid "component" (fun () -> Warp.eval w ~component:1 0.5));
    Alcotest.test_case "manufactured: cos 2 pi phi with the exact quadratic phi" `Quick (fun () ->
        (* xhat = cos (2 pi t1) on every slice and a piecewise-linear
           omega on uneven steps: x(t) = cos (2 pi phi(t)) with phi the
           exact integral, to rounding, at the knots, at the t1 grid
           points and between *)
        let knots = [| 0.; 0.7; 1.5; 2.1; 3. |] and omega = [| 2.; 3.5; 1.2; 2.8; 2. |] in
        let w = Warp.make ~t2:knots ~omega ~slices:(cos_slices 5) () in
        let phi = phi_exact knots omega in
        let check what t =
          approx_tol 1e-12 (what ^ " phi") (phi t) (Warp.phi w t);
          approx_tol 1e-12 (what ^ " x") (cos (two_pi *. phi t)) (Warp.eval w ~component:0 t)
        in
        Array.iter (check "knot") knots;
        for k = 0 to 300 do
          check "uniform" (3. *. float_of_int k /. 300.)
        done;
        (* t where phi(t) mod 1 is the t1 grid point j / 9 *)
        for cycle = 0 to 5 do
          for j = 0 to 8 do
            check "t1 grid" (bisect phi 0. 3. (float_of_int cycle +. (float_of_int j /. 9.)))
          done
        done;
        (* dphi/dt = omega: the centred difference of a quadratic is exact *)
        let d = 1e-4 in
        List.iter
          (fun t ->
            approx_tol 1e-7 "rate"
              (linear_interp knots omega t)
              ((Warp.phi w (t +. d) -. Warp.phi w (t -. d)) /. (2. *. d)))
          [ 0.3; 1.; 1.8; 2.5 ]);
    Alcotest.test_case "periodic: five slow periods out" `Quick (fun () ->
        (* n2 = 5 slices over p2 = 2, amplitude and rate periodic in t2;
           at t in [10, 12] the recovery is the oracle that integrates
           omega piece by piece over all five periods *)
        let p2 = 2. in
        let t2 = [| 0.; 0.4; 0.8; 1.2; 1.6 |] and omega = [| 1.; 1.8; 2.5; 1.6; 0.9 |] in
        let amp = Array.map (fun t -> 1. +. (0.3 *. sin (two_pi *. t /. p2))) t2 in
        let slices =
          Array.map
            (fun a -> Array.init 9 (fun j -> [| a *. cos (two_pi *. float_of_int j /. 9.) |]))
            amp
        in
        let w = Warp.make ~t2 ~omega ~slices ~p2 () in
        let periods = 6 in
        let knots =
          Array.init ((5 * periods) + 1) (fun i -> (float_of_int (i / 5) *. p2) +. t2.(i mod 5))
        in
        let rates = Array.init (Array.length knots) (fun i -> omega.(i mod 5)) in
        let closed = Array.append t2 [| p2 |] and amp' = Array.append amp [| amp.(0) |] in
        for k = 0 to 400 do
          let t = 10. +. (2. *. float_of_int k /. 400.) in
          let a = linear_interp closed amp' (t -. (p2 *. Float.floor (t /. p2))) in
          let phi = phi_exact knots rates t in
          approx_tol 1e-11 "phi" phi (Warp.phi w t);
          approx_tol 1e-11 "x" (a *. cos (two_pi *. phi)) (Warp.eval w ~component:0 t)
        done;
        approx_tol 1e-12 "cycles per period" (phi_exact knots rates p2) (Warp.phi w p2));
    Alcotest.test_case "a point allocates at most 4 words" `Quick (fun () ->
        (* the VCO-B headline's shape: 61 slices of 25 points, 4 states;
           once every slice's coefficients are filled, a point reads
           them and allocates only its boxed result *)
        let m = 61 and n1 = 25 in
        let t2 = Array.init m (fun i -> 5. *. float_of_int i) in
        let omega = Array.map (fun t -> 0.75 +. (0.05 *. sin (t /. 50.))) t2 in
        let slices =
          Array.init m (fun i ->
              Array.init n1 (fun j ->
                  Array.init 4 (fun c ->
                      sin ((two_pi *. float_of_int j /. float_of_int n1) +. float_of_int (c + i)))))
        in
        let w = Warp.make ~t2 ~omega ~slices () in
        (* a list holds the times boxed, so the loop boxes no argument *)
        let points = 20_000 in
        let times = List.init points (fun k -> 300. *. float_of_int k /. float_of_int points) in
        let sweep () =
          let acc = ref 0. and rest = ref times in
          while
            match !rest with
            | [] -> false
            | t :: tl ->
              acc := !acc +. Warp.eval w ~component:2 t;
              rest := tl;
              true
          do
            ()
          done;
          !acc
        in
        let first = sweep () in
        let w0 = Gc.minor_words () in
        let again = sweep () in
        let words = (Gc.minor_words () -. w0) /. float_of_int points in
        approx_tol 0. "same values" first again;
        Alcotest.(check bool) (Printf.sprintf "%.2f words per point" words) true (words <= 4.));
  ]

let prop_tests =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"warp: phi is increasing for positive rates" ~count:30
         (make Gen.(array_size (return 20) (float_range 0.1 5.))) (fun rates ->
           let times = Vec.linspace 0. 1. 20 in
           let w = Warp.make ~t2:times ~omega:rates ~slices:(cos_slices 20) () in
           let ok = ref true in
           for i = 1 to 19 do
             if Warp.phi w times.(i) <= Warp.phi w times.(i - 1) then ok := false
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"zero crossings count cycles of pure tones" ~count:20
         (make (Gen.float_range 1. 20.)) (fun freq ->
           let n = 50_000 in
           let times = Vec.linspace 0. 4. n in
           let x = Vec.map (fun t -> sin (two_pi *. freq *. t)) times in
           let count = Array.length (Zero_crossing.upward ~times x) in
           abs (count - int_of_float (4. *. freq)) <= 1));
  ]

let suites =
  [
    ("sigproc.zero_crossing", zero_crossing_tests);
    ("sigproc.bivariate", bivariate_tests);
    ("sigproc.warp", warp_tests);
    ("sigproc.properties", prop_tests);
  ]
