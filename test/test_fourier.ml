(* Tests for FFT, Fourier series, spectral differentiation and spectra. *)
open Linalg
open Testkit
open Fourier

let approx = Alcotest.(check (float 1e-9))
let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

let fft_tests =
  [
    Alcotest.test_case "fft of impulse is flat" `Quick (fun () ->
        let x = Cx.Cvec.zeros 8 in
        x.(0) <- Complex.one;
        let y = Fft.fft x in
        Array.iter (fun z -> approx "re" 1. (Cx.re z)) y);
    Alcotest.test_case "fft matches dft (power of two)" `Quick (fun () ->
        let x = Cx.Cvec.init 16 (fun i -> Cx.cx (sin (0.3 *. float_of_int i)) (cos (float_of_int i))) in
        Alcotest.(check bool) "eq" true (cvec_approx_equal ~tol:1e-9 (Fft.fft x) (Fft.dft x)));
    Alcotest.test_case "fft matches dft (odd size, Bluestein)" `Quick (fun () ->
        let x = Cx.Cvec.init 15 (fun i -> Cx.cx (cos (0.7 *. float_of_int i)) 0.) in
        Alcotest.(check bool) "eq" true (cvec_approx_equal ~tol:1e-8 (Fft.fft x) (Fft.dft x)));
    Alcotest.test_case "fft matches dft (prime size)" `Quick (fun () ->
        let x = Cx.Cvec.init 31 (fun i -> Cx.cx (float_of_int (i mod 5)) (float_of_int (i mod 3))) in
        Alcotest.(check bool) "eq" true (cvec_approx_equal ~tol:1e-8 (Fft.fft x) (Fft.dft x)));
    Alcotest.test_case "single sinusoid lands in one bin" `Quick (fun () ->
        let n = 64 in
        let x = Vec.init n (fun i -> cos (two_pi *. 4. *. float_of_int i /. float_of_int n)) in
        let y = Fft.fft_real x in
        approx_tol 1e-8 "bin 4" (float_of_int n /. 2.) (Complex.norm y.(4));
        approx_tol 1e-8 "bin 5" 0. (Complex.norm y.(5)));
    Alcotest.test_case "real dft tables match fft on odd sizes" `Quick (fun () ->
        List.iter
          (fun n ->
            let x = Vec.init n (fun i -> sin (0.7 *. float_of_int i) +. (0.1 *. float_of_int i)) in
            let y = Fft.fft_real x in
            let h = n / 2 in
            let re = Array.make (h + 1) 0. and im = Array.make (h + 1) 0. in
            let t = Rdft.of_size n in
            let x' = Array.copy x in
            Rdft.forward t x' ~re ~im;
            for l = 0 to h do
              approx_tol 1e-9 (Printf.sprintf "n=%d re %d" n l) (Cx.re y.(l)) re.(l);
              approx_tol 1e-9 (Printf.sprintf "n=%d im %d" n l) (Cx.im y.(l)) im.(l)
            done;
            (* the inverse recovers the signal from the lower half *)
            Rdft.inverse t ~re ~im x';
            Alcotest.(check bool) (Printf.sprintf "n=%d inverse" n) true
              (Vec.approx_equal ~tol:1e-12 x' x))
          [ 1; 3; 15; 25; 161 ]);
  ]

let series_tests =
  [
    Alcotest.test_case "coeffs of cosine" `Quick (fun () ->
        let n = 21 in
        let x = Vec.init n (fun j -> cos (two_pi *. float_of_int j /. float_of_int n)) in
        let c = Series.coeffs x in
        approx_tol 1e-10 "c1 re" 0.5 (Cx.re (Series.harmonic c 1));
        approx_tol 1e-10 "c-1 re" 0.5 (Cx.re (Series.harmonic c (-1)));
        approx_tol 1e-10 "c0" 0. (Complex.norm (Series.harmonic c 0));
        approx_tol 1e-10 "c2" 0. (Complex.norm (Series.harmonic c 2)));
    Alcotest.test_case "eval reproduces samples" `Quick (fun () ->
        let n = 15 and period = 2.5 in
        let f t = 1.2 +. sin (two_pi *. t /. period) -. (0.3 *. cos (2. *. two_pi *. t /. period)) in
        let x = Vec.init n (fun j -> f (period *. float_of_int j /. float_of_int n)) in
        let c = Series.coeffs x in
        for j = 0 to n - 1 do
          let t = period *. float_of_int j /. float_of_int n in
          approx_tol 1e-9 "sample" x.(j) (Series.eval c ~period t);
          approx_tol 1e-9 "interp off-grid" (f (t +. 0.01)) (Series.interp x ~period (t +. 0.01))
        done);
    Alcotest.test_case "spectral diff matrix is exact on trig polynomials" `Quick (fun () ->
        let n = 11 in
        let d = Series.diff_matrix n in
        let grid j = float_of_int j /. float_of_int n in
        let x = Vec.init n (fun j -> sin (two_pi *. grid j) +. (0.5 *. cos (3. *. two_pi *. grid j))) in
        let dx_exact =
          Vec.init n (fun j ->
              (two_pi *. cos (two_pi *. grid j)) -. (1.5 *. two_pi *. sin (3. *. two_pi *. grid j)))
        in
        Alcotest.(check bool) "exact" true (Vec.approx_equal ~tol:1e-8 (Mat.matvec d x) dx_exact));
    Alcotest.test_case "fd diff matrices converge at expected order" `Quick (fun () ->
        let err order n =
          let d = Series.diff_matrix_fd ~order n in
          let grid j = float_of_int j /. float_of_int n in
          let x = Vec.init n (fun j -> sin (two_pi *. grid j)) in
          let dx = Vec.init n (fun j -> two_pi *. cos (two_pi *. grid j)) in
          Vec.norm_inf (Vec.sub (Mat.matvec d x) dx)
        in
        let r2 = err 2 16 /. err 2 32 in
        let r4 = err 4 16 /. err 4 32 in
        Alcotest.(check bool) "order 2 ratio ~ 4" true (r2 > 3.5 && r2 < 4.5);
        Alcotest.(check bool) "order 4 ratio ~ 16" true (r4 > 13. && r4 < 19.));
    Alcotest.test_case "resample preserves trig polynomial" `Quick (fun () ->
        let f t = cos (two_pi *. t) -. (0.2 *. sin (2. *. two_pi *. t)) in
        let x = Vec.init 11 (fun j -> f (float_of_int j /. 11.)) in
        let y = Array.init 33 (fun j -> Series.interp x ~period:1. (float_of_int j /. 33.)) in
        for j = 0 to 32 do
          approx_tol 1e-9 "resampled" (f (float_of_int j /. 33.)) y.(j)
        done);
    Alcotest.test_case "harmonics_needed for pure tone is 1" `Quick (fun () ->
        let x = Vec.init 31 (fun j -> sin (two_pi *. float_of_int j /. 31.)) in
        Alcotest.(check int) "needed" 1 (Series.harmonics_needed ~tol:1e-10 x));
    Alcotest.test_case "thd of pure tone is ~0, of square wave is ~0.48" `Quick (fun () ->
        let pure = Vec.init 63 (fun j -> sin (two_pi *. float_of_int j /. 63.)) in
        approx_tol 1e-8 "pure" 0. (Series.total_harmonic_distortion (Series.coeffs pure));
        let square = Vec.init 1023 (fun j -> if j < 512 then 1. else -1.) in
        let thd = Series.total_harmonic_distortion (Series.coeffs square) in
        Alcotest.(check bool) "square" true (thd > 0.4 && thd < 0.55));
    Alcotest.test_case "even length rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (Series.coeffs [| 1.; 2. |]);
             false
           with Invalid_argument _ -> true));
  ]

let spectrum_tests =
  [
    Alcotest.test_case "dominant frequency of pure tone" `Quick (fun () ->
        let fs = 1000. and f0 = 50. in
        let n = 1024 in
        let x = Vec.init n (fun i -> sin (two_pi *. f0 *. float_of_int i /. fs)) in
        let est = Spectrum.dominant_frequency ~dt:(1. /. fs) x in
        Alcotest.(check bool) "within 0.5 Hz" true (Float.abs (est -. f0) < 0.5));
    Alcotest.test_case "magnitudes of DC" `Quick (fun () ->
        let mags = Spectrum.magnitudes (Array.make 16 3.) in
        approx "dc" 3. mags.(0);
        approx "ac" 0. mags.(1));
    Alcotest.test_case "frequencies spacing" `Quick (fun () ->
        let f = Spectrum.frequencies ~dt:0.01 100 in
        approx "df" 1. (f.(1) -. f.(0)));
  ]

let prop_tests =
  let open QCheck in
  let sig_gen n = Gen.array_size (Gen.return n) (Gen.float_range (-10.) 10.) in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"fft roundtrip" ~count:50 (make (sig_gen 24)) (fun x ->
           let cv = Cx.Cvec.of_real x in
           cvec_approx_equal ~tol:1e-8 (ifft (Fft.fft cv)) cv));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"fft roundtrip (non power of two)" ~count:30 (make (sig_gen 21))
         (fun x ->
           let cv = Cx.Cvec.of_real x in
           cvec_approx_equal ~tol:1e-7 (ifft (Fft.fft cv)) cv));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"parseval" ~count:50 (make (sig_gen 32)) (fun x ->
           let y = Fft.fft_real x in
           let time_energy = Vec.dot x x in
           let freq_energy =
             Array.fold_left (fun s z -> s +. Complex.norm2 z) 0. y /. 32.
           in
           Float.abs (time_energy -. freq_energy) <= 1e-6 *. (1. +. time_energy)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"series eval on grid = samples" ~count:30 (make (sig_gen 13)) (fun x ->
           let c = Series.coeffs x in
           let ok = ref true in
           for j = 0 to 12 do
             if Float.abs (Series.eval c ~period:1. (float_of_int j /. 13.) -. x.(j)) > 1e-7 then
               ok := false
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"diff matrix annihilates constants" ~count:20
         (make (Gen.float_range (-5.) 5.)) (fun c ->
           let d = Series.diff_matrix 9 in
           Vec.norm_inf (Mat.matvec d (Array.make 9 c)) < 1e-9));
  ]

let suites =
  [
    ("fourier.fft", fft_tests);
    ("fourier.series", series_tests);
    ("fourier.spectrum", spectrum_tests);
    ("fourier.properties", prop_tests);
  ]
