(* Tests for Newton and finite-difference Jacobians. *)
open Testkit
open Nonlin

let approx_tol tol = Alcotest.(check (float tol))

(* Rosenbrock-style 2-D system with root (1, 1). *)
let rosen_residual x = [| 10. *. (x.(1) -. (x.(0) *. x.(0))); 1. -. x.(0) |]

let fdjac_tests =
  [
    Alcotest.test_case "fd jacobian of linear map is the matrix" `Quick (fun () ->
        let a = [| [| 2.; -1. |]; [| 0.5; 3. |] |] in
        let f x = Mat.matvec a x in
        let j = Fdjac.jacobian f [| 0.3; -0.7 |] in
        Alcotest.(check bool) "eq" true (Mat.approx_equal ~tol:1e-6 j a));
    Alcotest.test_case "central jacobian more accurate on cubic" `Quick (fun () ->
        let f x = [| x.(0) ** 3. |] in
        let x = [| 2. |] in
        let fwd = Float.abs ((Fdjac.jacobian f x).(0).(0) -. 12.) in
        let ctr = Float.abs ((Fdjac.jacobian_central f x).(0).(0) -. 12.) in
        Alcotest.(check bool) "central better" true (ctr < fwd));
    Alcotest.test_case "directional derivative" `Quick (fun () ->
        let f x = [| x.(0) *. x.(1); x.(0) +. x.(1) |] in
        let jv = Fdjac.directional f [| 2.; 3. |] [| 1.; -1. |] in
        (* J = [[3, 2], [1, 1]]; J [1, -1] = [1, 0] *)
        approx_tol 1e-6 "jv0" 1. jv.(0);
        approx_tol 1e-6 "jv1" 0. jv.(1));
  ]

let newton_tests =
  [
    Alcotest.test_case "quadratic convergence on sqrt(2)" `Quick (fun () ->
        let report =
          Newton.solve ~residual:(fun x -> [| (x.(0) *. x.(0)) -. 2. |]) [| 1. |]
        in
        Alcotest.(check bool) "converged" true report.Newton.converged;
        approx_tol 1e-9 "root" (sqrt 2.) report.Newton.x.(0);
        Alcotest.(check bool) "few iterations" true (report.Newton.iterations <= 8));
    Alcotest.test_case "rosenbrock system" `Quick (fun () ->
        let report = Newton.solve ~residual:rosen_residual [| -1.2; 1. |] in
        Alcotest.(check bool) "converged" true report.Newton.converged;
        approx_tol 1e-8 "x0" 1. report.Newton.x.(0);
        approx_tol 1e-8 "x1" 1. report.Newton.x.(1));
    Alcotest.test_case "analytic jacobian used" `Quick (fun () ->
        let residual x = [| exp x.(0) -. 2. |] in
        let jacobian x = [| [| exp x.(0) |] |] in
        let report = Newton.solve ~jacobian ~residual [| 0. |] in
        Alcotest.(check bool) "converged" true report.Newton.converged;
        approx_tol 1e-10 "ln 2" (log 2.) report.Newton.x.(0));
    Alcotest.test_case "line search rescues bad start" `Quick (fun () ->
        (* atan has tiny derivative far out; undamped Newton diverges from 4 *)
        let report = Newton.solve ~residual:(fun x -> [| atan x.(0) |]) [| 4. |] in
        Alcotest.(check bool) "converged" true report.Newton.converged;
        approx_tol 1e-8 "root" 0. report.Newton.x.(0));
    Alcotest.test_case "singular jacobian reported" `Quick (fun () ->
        let report =
          Newton.solve
            ~jacobian:(fun _ -> Mat.zeros 1 1)
            ~residual:(fun x -> [| x.(0) +. 1. |])
            [| 0. |]
        in
        Alcotest.(check bool) "not converged" false report.Newton.converged;
        Alcotest.(check bool) "reason" true (report.Newton.reason = Some Newton.Singular_jacobian));
    Alcotest.test_case "scalar newton" `Quick (fun () ->
        let r = Newton.scalar (fun x -> (x *. x) -. 9.) (fun x -> 2. *. x) 5. in
        approx_tol 1e-10 "root" 3. r);
  ]

let prop_tests =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"newton finds cbrt for random targets" ~count:50
         (make (Gen.float_range 0.5 50.)) (fun target ->
           let report =
             Newton.solve ~residual:(fun x -> [| (x.(0) ** 3.) -. target |]) [| 2. |]
           in
           report.Newton.converged
           && Float.abs (report.Newton.x.(0) -. (target ** (1. /. 3.))) < 1e-6));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"newton is scale invariant" ~count:30
         (make (Gen.float_range 0.01 100.)) (fun s ->
           (* scaling the residual must not change the root *)
           let residual x = [| s *. ((x.(0) *. x.(0)) -. 5.) |] in
           let report = Newton.solve ~residual [| 2. |] in
           report.Newton.converged && Float.abs (report.Newton.x.(0) -. sqrt 5.) < 1e-5));
  ]

let suites =
  [
    ("nonlin.fdjac", fdjac_tests);
    ("nonlin.newton", newton_tests);
    ("nonlin.properties", prop_tests);
  ]
