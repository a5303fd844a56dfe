(* Tests for signal processing: interpolation, zero crossings,
   bivariate forms and time warping. *)
open Testkit
open Sigproc

let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

let interp_tests =
  [
    Alcotest.test_case "linear interpolation exact on lines" `Quick (fun () ->
        let f = Interp1d.create [| 0.; 1.; 2. |] [| 1.; 3.; 5. |] in
        approx_tol 1e-12 "mid" 2. (Interp1d.eval f 0.5);
        approx_tol 1e-12 "clamp lo" 1. (Interp1d.eval f (-1.));
        approx_tol 1e-12 "clamp hi" 5. (Interp1d.eval f 9.));
    Alcotest.test_case "cumulative integral of constant" `Quick (fun () ->
        let times = Vec.linspace 0. 2. 21 in
        let c = Interp1d.cumulative_integral times (Array.make 21 3.) in
        approx_tol 1e-12 "end" 6. c.(20));
    Alcotest.test_case "non-increasing times rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Interp1d.create [| 0.; 0. |] [| 1.; 2. |]);
             false
           with Invalid_argument _ -> true));
  ]

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

let warp_tests =
  [
    Alcotest.test_case "constant rate warping is linear" `Quick (fun () ->
        let w = Testkit.warp_of_function ~t0:0. ~t1:10. ~n:101 (fun _ -> 2.) in
        approx_tol 1e-9 "phi(3)" 6. (Warp.phi w 3.);
        approx_tol 1e-9 "total" 20. (Warp.total_cycles w));
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
        Alcotest.(check bool) "raises" true
          (try
             ignore (Warp.of_samples ~times:[| 0.; 1. |] ~omega:[| 1.; 0. |]);
             false
           with Invalid_argument _ -> true));
  ]

let prop_tests =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"warp: phi is increasing for positive rates" ~count:30
         (make Gen.(array_size (return 20) (float_range 0.1 5.))) (fun rates ->
           let times = Vec.linspace 0. 1. 20 in
           let w = Warp.of_samples ~times ~omega:rates in
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
    ("sigproc.interp1d", interp_tests);
    ("sigproc.zero_crossing", zero_crossing_tests);
    ("sigproc.bivariate", bivariate_tests);
    ("sigproc.warp", warp_tests);
    ("sigproc.properties", prop_tests);
  ]
