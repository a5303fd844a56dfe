(* Tests for the dense/complex linear algebra substrate. *)
open Linalg
open Testkit

let approx = Alcotest.(check (float 1e-9))
let approx_tol tol = Alcotest.(check (float tol))

let vec_tests =
  [
    Alcotest.test_case "linspace endpoints" `Quick (fun () ->
        let v = Vec.linspace 0. 1. 11 in
        approx "first" 0. v.(0);
        approx "last" 1. v.(10);
        approx "step" 0.1 (v.(1) -. v.(0)));
    Alcotest.test_case "dot orthogonal" `Quick (fun () ->
        approx "dot" 0. (Vec.dot [| 1.; 0.; -1. |] [| 1.; 5.; 1. |]));
    Alcotest.test_case "dot compensated" `Quick (fun () ->
        (* summing 1 and many tiny terms that cancel: naive summation loses them *)
        let n = 10_000 in
        let u = Array.make (n + 1) 1. and v = Array.make (n + 1) 1e-16 in
        u.(0) <- 1.;
        v.(0) <- 1.;
        let d = Vec.dot u v in
        approx_tol 1e-18 "sum" (1. +. (float_of_int n *. 1e-16)) d);
    Alcotest.test_case "norms" `Quick (fun () ->
        let v = [| 3.; -4. |] in
        approx "norm2" 5. (Vec.norm2 v);
        approx "norm_inf" 4. (Vec.norm_inf v));
    Alcotest.test_case "axpy" `Quick (fun () ->
        let y = [| 1.; 2. |] in
        Vec.axpy ~a:2. ~x:[| 10.; 20. |] y;
        Alcotest.(check bool) "eq" true (Vec.approx_equal y [| 21.; 42. |]));
    Alcotest.test_case "weighted_norm" `Quick (fun () ->
        approx "wn" 2. (Vec.weighted_norm ~scale:[| 1.; 10. |] [| 2.; 5. |]));
    Alcotest.test_case "mismatched lengths raise" `Quick (fun () ->
        Alcotest.check_raises "sub" (Invalid_argument "Vec.sub: length 2 <> 3") (fun () ->
            ignore (Vec.sub [| 1.; 2. |] [| 1.; 2.; 3. |])));
  ]

(* An entry for the bitwise matvec comparison: finite values, +-0,
   +-inf and NaNs of two payloads (a product or sum of two NaNs keeps
   its first operand's payload, so an operand swap shows) *)
let matvec_entry =
  QCheck.Gen.frequency
    [
      (12, QCheck.Gen.float_range (-1.) 1.);
      (2, QCheck.Gen.return 0.);
      (2, QCheck.Gen.return (-0.));
      (1, QCheck.Gen.return Float.infinity);
      (1, QCheck.Gen.return Float.neg_infinity);
      (1, QCheck.Gen.return Float.nan);
      (1, QCheck.Gen.return (Int64.float_of_bits 0x7FF8_0000_0000_BEEFL));
    ]

(* an r x c matrix, r = 1..130 so that every remainder of the
   four-row blocks occurs, with u (c entries) for matvec and v (r
   entries, about a third of them zero) for tmatvec, so that blocks of
   four non-zero v_i and the one-row zero skip both occur *)
let matvec_case_gen =
  let open QCheck.Gen in
  let* r = int_range 1 130 in
  let* c = int_range 1 40 in
  let* m = array_size (return r) (array_size (return c) matvec_entry) in
  let* u = array_size (return c) matvec_entry in
  let* v = array_size (return r) (frequency [ (2, matvec_entry); (1, oneofl [ 0.; -0. ]) ]) in
  return (m, u, v)

let print_matvec_case (m, u, v) =
  let hex a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") a)) in
  Printf.sprintf "%d x %d:\n%s\nu = %s\nv = %s" (Mat.rows m) (Mat.cols m)
    (String.concat "\n" (Array.to_list (Array.map hex m)))
    (hex u) (hex v)

let mat_tests =
  [
    Alcotest.test_case "identity mul" `Quick (fun () ->
        let a = Mat.init 3 3 (fun i j -> float_of_int ((i * 3) + j + 1)) in
        Alcotest.(check bool) "I*A = A" true (Mat.approx_equal (Mat.mul (Mat.identity 3) a) a));
    Alcotest.test_case "matvec known" `Quick (fun () ->
        let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
        Alcotest.(check bool)
          "Av" true
          (Vec.approx_equal (Mat.matvec a [| 1.; 1. |]) [| 3.; 7. |]));
    Alcotest.test_case "tmatvec = transpose matvec" `Quick (fun () ->
        let a = Mat.init 3 4 (fun i j -> float_of_int (i + (2 * j)) -. 2.5) in
        let v = [| 1.; -2.; 0.5 |] in
        Alcotest.(check bool)
          "eq" true
          (Vec.approx_equal (Mat.tmatvec a v) (Mat.matvec (Mat.transpose a) v)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"matvec and tmatvec are bitwise the one-row loops" ~count:300
         (QCheck.make ~print:print_matvec_case matvec_case_gen)
         (fun (m, u, v) ->
           let bits = Array.map Int64.bits_of_float in
           bits (Mat.matvec m u) = bits (matvec_one_row m u)
           && bits (Mat.tmatvec m v) = bits (tmatvec_one_row m v)));
    Alcotest.test_case "matvec and tmatvec reject a ragged matrix" `Quick (fun () ->
        (* row 6 is short: both loops read rows unchecked, so they must refuse it *)
        let ragged = Array.init 9 (fun i -> Array.make (if i = 6 then 4 else 5) 1.) in
        Alcotest.check_raises "matvec" (Invalid_argument "Mat.matvec: ragged matrix") (fun () ->
            ignore (Mat.matvec ragged (Array.make 5 1.)));
        Alcotest.check_raises "tmatvec" (Invalid_argument "Mat.tmatvec: ragged matrix")
          (fun () -> ignore (Mat.tmatvec ragged (Array.make 9 1.))));
    Alcotest.test_case "mul associativity on small case" `Quick (fun () ->
        let a = Mat.init 2 3 (fun i j -> float_of_int ((i + 1) * (j + 2)))
        and b = Mat.init 3 2 (fun i j -> float_of_int (i - j))
        and c = Mat.init 2 2 (fun i j -> float_of_int ((2 * i) + j)) in
        Alcotest.(check bool)
          "(ab)c = a(bc)" true
          (Mat.approx_equal (Mat.mul (Mat.mul a b) c) (Mat.mul a (Mat.mul b c))));
  ]

(* [lu_outcome factor a] runs [factor] on a copy of [a]: the factors
   as bit patterns and the permutation, or the column of [Singular] *)
let lu_outcome factor a =
  let a = Mat.copy a in
  match factor a with
  | perm -> Ok (Array.map (Array.map Int64.bits_of_float) a, perm)
  | exception Lu.Singular k -> Error k

let lu_result =
  Alcotest.testable
    (fun ppf -> function
      | Ok (_, perm) ->
        Format.fprintf ppf "factors with perm [%s]"
          (String.concat "; " (Array.to_list (Array.map string_of_int perm)))
      | Error k -> Format.fprintf ppf "Singular %d" k)
    ( = )

let lu_factor_into a =
  let perm = Array.make (Array.length a) 0 in
  ignore (Lu.factor_into a ~perm);
  perm

(* a dense nonsingular-looking matrix without exact zeros *)
let lu_sample_matrix n = Mat.init n n (fun i j -> sin (float_of_int ((7 * i) + (3 * j) + 1)))

(* An n x n matrix of one kind for the bitwise comparison: "dense";
   the "cross" sparsity of a 2-D collocation grid (an entry couples two
   grid points on one line of the grid), whose exact zeros send rows
   down each zero-multiplier branch; "special", entries drawn from +-0,
   NaN and +-inf as well as finite values; a "zero column" (rank
   deficient); "infinite", a dense matrix with up to n^2/8 entries set
   to +-inf or +-0 but no NaN, so the factorization itself makes NaNs
   (inf - inf, 0 inf); and "one NaN", an "infinite" matrix with one
   entry set to NaN, whose payload then meets those default NaNs. *)
let lu_matrix_gen ~kind n =
  let open QCheck.Gen in
  let entry =
    if kind = "special" then
      frequency
        [
          (12, float_range (-1.) 1.);
          (3, return 0.);
          (3, return (-0.));
          (1, return Float.nan);
          (1, return Float.infinity);
          (1, return Float.neg_infinity);
        ]
    else float_range (-1.) 1.
  in
  let* a = array_size (return n) (array_size (return n) entry) in
  let* c = int_range 0 (n - 1) in
  let w = int_of_float (Float.ceil (Float.sqrt (float_of_int n))) in
  let* a =
    match kind with
    | "cross" ->
      Array.iteri
        (fun i row ->
          Array.iteri (fun j _ -> if i / w <> j / w && i mod w <> j mod w then row.(j) <- 0.) row)
        a;
      return a
    | "zero column" ->
      Array.iter (fun row -> row.(c) <- 0.) a;
      return a
    | "infinite" | "one NaN" ->
      let cell = pair (int_range 0 (n - 1)) (int_range 0 (n - 1)) in
      let special = oneofl [ Float.infinity; Float.neg_infinity; 0.; -0. ] in
      let* k = int_range 1 (Int.max 1 (n * n / 8)) in
      let* sets = list_size (return k) (pair cell special) in
      List.iter (fun ((i, j), v) -> a.(i).(j) <- v) sets;
      let* i, j = cell in
      if kind = "one NaN" then a.(i).(j) <- Float.nan;
      return a
    | _ -> return a
  in
  return (kind, a)

(* n = 1..40, every kind but the last two *)
let lu_case_gen =
  let open QCheck.Gen in
  let* n = int_range 1 40 in
  let* kind = oneofl [ "dense"; "cross"; "special"; "zero column" ] in
  lu_matrix_gen ~kind n

(* the sizes the solvers factor (61, 101, 121) and 1..40, for every
   kind: the C sweep on dense, cross and infinite matrices, the OCaml
   sweep on the ones holding a NaN *)
let lu_solver_case_gen =
  let open QCheck.Gen in
  let* n = oneof [ oneofl [ 61; 101; 121 ]; int_range 1 40 ] in
  let* kind = oneofl [ "dense"; "cross"; "infinite"; "one NaN" ] in
  lu_matrix_gen ~kind n

let print_lu_case (kind, a) =
  Printf.sprintf "%s, n = %d:\n%s" kind (Array.length a)
    (String.concat "\n"
       (Array.to_list
          (Array.map (fun row -> String.concat " " (Array.to_list (Array.map (Printf.sprintf "%h") row))) a)))

(* (D (x) I_n) on the envelope's grids: n1 odd, spectral or fourth-order
   D, a random row range [lo, hi) written into a NaN-filled buffer *)
let kron_case_gen =
  let open QCheck.Gen in
  let* n = int_range 1 9 in
  let* n1 = map (fun m -> (2 * m) + 1) (int_range 1 20) in
  let* fd4 = if n1 >= 5 then bool else return false in
  let* src = array_size (return (n1 * n)) (float_range (-10.) 10.) in
  let* lo = int_range 0 n1 in
  let* hi = int_range lo n1 in
  return (n, n1, fd4, src, lo, hi)

let kron_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"kron_eye_into is bitwise the triple loop" ~count:300
         (QCheck.make
            ~print:(fun (n, n1, fd4, _, lo, hi) ->
              Printf.sprintf "n = %d, n1 = %d, %s, rows [%d, %d)" n n1
                (if fd4 then "Fd4" else "spectral") lo hi)
            kron_case_gen)
         (fun (n, n1, fd4, src, lo, hi) ->
           let d =
             if fd4 then Fourier.Series.diff_matrix_fd ~order:4 n1
             else Fourier.Series.diff_matrix n1
           in
           let want = kron_eye_naive d ~n src in
           let got = Array.make (n1 * n) Float.nan in
           Mat.kron_eye_into d ~n ~lo ~hi src got;
           let bits = Int64.bits_of_float in
           let ok = ref true in
           Array.iteri
             (fun idx v ->
               let in_rows = idx >= lo * n && idx < hi * n in
               if in_rows && bits v <> bits want.(idx) then ok := false;
               if (not in_rows) && not (Float.is_nan v) then ok := false)
             got;
           !ok));
  ]

let lu_tests =
  [
    Alcotest.test_case "solve known 2x2" `Quick (fun () ->
        let a = [| [| 2.; 1. |]; [| 1.; 3. |] |] in
        let x = Lu.solve (Lu.factor a) [| 5.; 10. |] in
        Alcotest.(check bool) "x" true (Vec.approx_equal x [| 1.; 3. |]));
    Alcotest.test_case "solve with pivoting" `Quick (fun () ->
        (* a zero leading pivot: the factorization must swap rows *)
        let a = [| [| 0.; 1. |]; [| 1.; 0. |] |] in
        let x = Lu.solve (Lu.factor a) [| 2.; 3. |] in
        Alcotest.(check bool) "x" true (Vec.approx_equal x [| 3.; 2. |]));
    Alcotest.test_case "factor_into + solve_into on a reused buffer allocate < 64 words" `Quick
      (fun () ->
        (* the VCO-B envelope's 101 unknowns: refill, factor and solve
           in place; the factorization's record is all that remains *)
        let n = 101 in
        let a = Mat.init n n (fun i j -> if i = j then 4. else sin (float_of_int ((7 * i) + j))) in
        let b = Vec.init n (fun i -> cos (float_of_int i)) in
        let jac = Mat.zeros n n and perm = Array.make n 0 and x = Array.make n 0. in
        let call () =
          for i = 0 to n - 1 do
            Array.blit a.(i) 0 jac.(i) 0 n
          done;
          Lu.solve_into (Lu.factor_into jac ~perm) b x
        in
        let w = Test_par.steady_words call in
        Alcotest.(check bool) (Printf.sprintf "%.0f words per call < 64" w) true (w < 64.));
    Alcotest.test_case "a zero column raises Singular at its index, as the one-column loop"
      `Quick (fun () ->
        (* even and odd columns meet the two pivots of a two-column
           sweep; column 8 of 9 is the odd-n tail *)
        List.iter
          (fun (n, c) ->
            let a = lu_sample_matrix n in
            Array.iter (fun row -> row.(c) <- 0.) a;
            let label = Printf.sprintf "n = %d, zero column %d" n c in
            Alcotest.check lu_result label (Error c) (lu_outcome lu_one_column a);
            Alcotest.check lu_result label (Error c) (lu_outcome lu_factor_into a))
          [ (8, 0); (8, 3); (8, 7); (9, 4); (9, 5); (9, 8) ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"factor_into is bitwise the one-column loop" ~count:400
         (QCheck.make ~print:print_lu_case lu_case_gen)
         (fun (_, a) -> lu_outcome lu_factor_into a = lu_outcome lu_one_column a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"factor_into is bitwise the one-column loop at 61-121 unknowns and with infinities"
         ~count:60
         (QCheck.make ~print:print_lu_case lu_solver_case_gen)
         (fun (_, a) -> lu_outcome lu_factor_into a = lu_outcome lu_one_column a));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"solve_into is bitwise the row-by-row substitution" ~count:300
         (QCheck.make
            ~print:(fun ((kind, a), _) -> print_lu_case (kind, a))
            QCheck.Gen.(
              let* kind, a = lu_case_gen in
              let* b = array_size (return (Array.length a)) (float_range (-1.) 1.) in
              return ((kind, a), b)))
         (fun ((_, a), b) ->
           (* n = 1..40 meets every n mod 4 of the four-row sweep;
              a singular draw has nothing to solve *)
           let a = Mat.copy a and perm = Array.make (Array.length a) 0 in
           match Lu.factor_into a ~perm with
           | exception Lu.Singular _ -> true
           | lu ->
             let x = Array.make (Array.length b) 0. in
             Lu.solve_into lu b x;
             let bits = Array.map Int64.bits_of_float in
             bits x = bits (lu_substitute a perm b)));
    Alcotest.test_case "a ragged matrix is not square" `Quick (fun () ->
        (* 16 rows take the C sweep, which reads every row to column
           n-1 unchecked *)
        let ragged = Array.init 16 (fun i -> Array.make (if i = 9 then 15 else 16) 1.) in
        Alcotest.check_raises "invalid" (Invalid_argument "Lu.factor: matrix not square")
          (fun () -> ignore (Lu.factor ragged)));
    Alcotest.test_case "singular raises" `Quick (fun () ->
        let a = [| [| 1.; 2. |]; [| 2.; 4. |] |] in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Lu.factor a);
             false
           with Lu.Singular _ -> true));
  ]

let gmres_tests =
  [
    Alcotest.test_case "gmres solves SPD system" `Quick (fun () ->
        let n = 20 in
        let a =
          Mat.init n n (fun i j ->
              if i = j then 4. else if abs (i - j) = 1 then -1. else 0.)
        in
        let xref = Vec.init n (fun i -> cos (float_of_int i)) in
        let b = Mat.matvec a xref in
        let r = Gmres.solve ~matvec:(fun v dst -> Mat.matvec_into a v ~dst) ~tol:1e-12 b in
        Alcotest.(check bool) "converged" true r.Gmres.converged;
        Alcotest.(check bool) "solution" true (Vec.approx_equal ~tol:1e-8 r.Gmres.x xref));
    Alcotest.test_case "gmres with preconditioner converges faster" `Quick (fun () ->
        let n = 40 in
        let d = Vec.init n (fun i -> 1. +. float_of_int i) in
        let a = Mat.init n n (fun i j -> if i = j then d.(i) else 0.01) in
        let b = Vec.init n (fun i -> float_of_int (i mod 3) -. 1.) in
        let matvec v dst = Mat.matvec_into a v ~dst in
        let plain = Gmres.solve ~matvec ~restart:10 ~tol:1e-10 b in
        let m_inv v out = Array.iteri (fun i vi -> out.(i) <- vi /. d.(i)) v in
        let pre = Gmres.solve ~matvec ~m_inv ~restart:10 ~tol:1e-10 b in
        Alcotest.(check bool) "pre converged" true pre.Gmres.converged;
        Alcotest.(check bool) "fewer iters" true (pre.Gmres.iterations <= plain.Gmres.iterations));
    Alcotest.test_case "gmres nonsymmetric" `Quick (fun () ->
        let a = [| [| 1.; 2.; 0. |]; [| 0.; 3.; 4. |]; [| 5.; 0.; 6. |] |] in
        let xref = [| 1.; -1.; 2. |] in
        let b = Mat.matvec a xref in
        let r = Gmres.solve ~matvec:(fun v dst -> Mat.matvec_into a v ~dst) ~tol:1e-13 b in
        Alcotest.(check bool) "solution" true (Vec.approx_equal ~tol:1e-9 r.Gmres.x xref));
    Alcotest.test_case "gmres workspace reuse is bitwise a fresh workspace" `Quick (fun () ->
        (* nonsymmetric, weakly diagonal: restart 8 does not converge in
           one cycle, so the restarting solve fills every Hessenberg
           column and rotation before the shorter solves run *)
        let n = 30 in
        let a =
          Mat.init n n (fun i j ->
              if i = j then 2. +. (0.1 *. float_of_int i) else sin (float_of_int ((3 * i) + j)) /. 4.)
        in
        let matvec v dst = Mat.matvec_into a v ~dst in
        let m_inv v out = Array.iteri (fun i vi -> out.(i) <- vi /. a.(i).(i)) v in
        let rhs k = Vec.init n (fun i -> cos (float_of_int ((k * 17) + i))) in
        (* every case has min restart max_iter = 8, the workspace shape *)
        let cases =
          [
            ("restarting", rhs 1, 8, 200, None);
            ("new rhs", rhs 2, 8, 200, None);
            ("max_iter < restart", rhs 3, 20, 8, None);
            ("initial guess", rhs 4, 8, 200, Some (rhs 5));
            ("restarting again", rhs 1, 8, 200, None);
          ]
        in
        let ws = Gmres.workspace ~n ~restart:8 ~max_iter:200 () in
        List.iter
          (fun (name, b, restart, max_iter, x0) ->
            let solve ws = Gmres.solve ~matvec ~m_inv ?ws ?x0 ~restart ~max_iter ~tol:1e-12 b in
            let fresh = solve None and reused = solve (Some ws) in
            if name = "restarting" then
              Alcotest.(check bool) "restarts" true (fresh.Gmres.iterations > restart);
            Alcotest.(check bool) (name ^ ": x bitwise") true (fresh.Gmres.x = reused.Gmres.x);
            Alcotest.(check int) (name ^ ": iterations") fresh.Gmres.iterations
              reused.Gmres.iterations;
            Alcotest.(check bool)
              (name ^ ": residual bitwise")
              true
              (Int64.equal
                 (Int64.bits_of_float fresh.Gmres.residual_norm)
                 (Int64.bits_of_float reused.Gmres.residual_norm)))
          cases;
        let raises name f =
          match f () with
          | _ -> Alcotest.failf "%s: expected Invalid_argument" name
          | exception Invalid_argument _ -> ()
        in
        raises "wrong n" (fun () -> Gmres.solve ~matvec ~ws ~restart:8 (Array.make (n + 1) 0.));
        raises "wrong restart" (fun () ->
            Gmres.solve ~matvec ~ws ~restart:10 ~max_iter:200 (rhs 1)));
  ]

let cx_tests =
  [
    Alcotest.test_case "complex LU solve" `Quick (fun () ->
        let open Cx in
        let a =
          [|
            [| cx 2. 1.; cx 0. (-1.) |];
            [| cx 1. 0.; cx 3. 2. |];
          |]
        in
        let xref = [| cx 1. (-2.); cx 0.5 0.5 |] in
        let b =
          Array.map (fun row -> Complex.add (Complex.mul row.(0) xref.(0)) (Complex.mul row.(1) xref.(1))) a
        in
        let x = Clu.solve (Clu.factor a) b in
        Alcotest.(check bool) "x" true (cvec_approx_equal ~tol:1e-12 x xref));
    Alcotest.test_case "split re/im solve is bitwise the boxed Complex arithmetic" `Quick
      (fun () ->
        (* 2 x 2 without a pivot swap (|a00| > |a10|): the boxed
           elimination and substitution written out with Complex ops.
           The two right-hand sides take both branches of Smith's
           division in the final step. *)
        let open Cx in
        List.iter
          (fun (a, b) ->
            let l = Complex.div a.(1).(0) a.(0).(0) in
            let u11 = Complex.sub a.(1).(1) (Complex.mul l a.(0).(1)) in
            let y1 = Complex.sub b.(1) (Complex.mul l b.(0)) in
            let x1 = Complex.div y1 u11 in
            let x0 = Complex.div (Complex.sub b.(0) (Complex.mul a.(0).(1) x1)) a.(0).(0) in
            let x_re = Array.make 2 0. and x_im = Array.make 2 0. in
            Clu.solve_into (Clu.factor a) ~b_re:(Array.map re b) ~b_im:(Array.map im b) ~x_re
              ~x_im;
            Alcotest.(check bool) "bitwise" true
              (x_re = [| re x0; re x1 |] && x_im = [| im x0; im x1 |]))
          [
            ( [| [| cx 3.1 0.7; cx (-0.3) 1.9 |]; [| cx 0.4 (-1.1); cx 2.3 0.2 |] |],
              [| cx 0.37 (-1.3); cx 2.9 0.41 |] );
            ( [| [| cx 0.3 2.7; cx 1.3 0.9 |]; [| cx (-0.2) 0.5; cx 0.1 3.3 |] |],
              [| cx (-1.7) 0.23; cx 0.61 1.9 |] );
          ];
        Alcotest.check_raises "length mismatch"
          (Invalid_argument "Cx.Clu.solve_into: dimension mismatch") (fun () ->
            let z = Array.make 3 0. in
            Clu.solve_into (Clu.factor (Cmat.init 2 2 (fun i j -> if i = j then Complex.one else Complex.zero))) ~b_re:z ~b_im:z ~x_re:z ~x_im:z));
    Alcotest.test_case "cis and polar" `Quick (fun () ->
        let z = Cx.cis (Float.pi /. 2.) in
        approx "re" 0. (Cx.re z);
        approx "im" 1. (Cx.im z));
  ]

(* Property-based tests *)
let prop_tests =
  let open QCheck in
  let finite_float = Gen.float_range (-100.) 100. in
  let vec_gen n = Gen.array_size (Gen.return n) finite_float in
  let mat_gen n =
    Gen.map
      (fun rows ->
        (* diagonally boost to keep matrices comfortably nonsingular *)
        Array.mapi
          (fun i row ->
            let r = Array.copy row in
            r.(i) <- r.(i) +. 500.;
            r)
          rows)
      (Gen.array_size (Gen.return n) (vec_gen n))
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"lu: A (A \\ b) = b" ~count:60
         (make (Gen.pair (mat_gen 8) (vec_gen 8)))
         (fun (a, b) ->
           let x = Lu.solve (Lu.factor a) b in
           Vec.approx_equal ~tol:1e-6 (Mat.matvec a x) b));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"gmres matches lu" ~count:30
         (make (Gen.pair (mat_gen 6) (vec_gen 6)))
         (fun (a, b) ->
           let x_lu = Lu.solve (Lu.factor a) b in
           let r = Gmres.solve ~matvec:(fun v dst -> Mat.matvec_into a v ~dst) ~tol:1e-13 b in
           Vec.approx_equal ~tol:1e-6 r.Gmres.x x_lu));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"vec: triangle inequality" ~count:100
         (make (Gen.pair (vec_gen 12) (vec_gen 12)))
         (fun (u, v) -> Vec.norm2 (Vec.sub u v) <= Vec.norm2 u +. Vec.norm2 v +. 1e-9));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"mat: (AB)^T = B^T A^T" ~count:40
         (make (Gen.pair (mat_gen 5) (mat_gen 5)))
         (fun (a, b) ->
           Mat.approx_equal ~tol:1e-6
             (Mat.transpose (Mat.mul a b))
             (Mat.mul (Mat.transpose b) (Mat.transpose a))));
  ]

let suites =
  [
    ("linalg.vec", vec_tests);
    ("linalg.mat", mat_tests);
    ("linalg.lu", lu_tests);
    ("linalg.kron", kron_tests);
    ("linalg.gmres", gmres_tests);
    ("linalg.cx", cx_tests);
    ("linalg.properties", prop_tests);
  ]
