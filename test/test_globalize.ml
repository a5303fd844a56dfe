(* Tests for the globalization cascade: trust-region Newton and the
   Polyalg escalation machinery — including the acceptance case of a
   strong-modulation quasiperiodic solve that plain damped Newton fails
   on and the cascade cracks. *)

module Obs = Wampde_obs

let two_pi = 2. *. Float.pi

(* Every test runs against a zeroed registry with telemetry enabled so
   strategy counters can be asserted without cross-test leakage, and
   under an empty fault schedule so a CI-level WAMPDE_FAULTS sweep
   cannot perturb the exact counter assertions. *)
let with_counters f () =
  Fault.with_armed "" (fun () ->
      Obs.Metrics.with_isolated (fun () ->
          Obs.set_enabled true;
          f ()))

let count name = Obs.Metrics.count (Obs.Metrics.counter name)

(* Powell badly-scaled-flavoured system: tight curved valley in the
   merit function, a classic trust-region benchmark. *)
let powell_residual x =
  [| (1e4 *. x.(0) *. x.(1)) -. 1.; exp (-.x.(0)) +. exp (-.x.(1)) -. 1.0001 |]

let rosenbrock_residual x = [| 10. *. (x.(1) -. (x.(0) *. x.(0))); 1. -. x.(0) |]

let rosenbrock_jacobian x = [| [| -20. *. x.(0); 10. |]; [| -1.; 0. |] |]

let powell_jacobian x =
  [| [| 1e4 *. x.(1); 1e4 *. x.(0) |]; [| -.exp (-.x.(0)); -.exp (-.x.(1)) |] |]

(* A Jacobian that records every point it is formed at. *)
let recording jacobian =
  let points = ref [] in
  ((fun x -> points := Array.copy x :: !points; jacobian x), points)

(* Reusing the model at an unchanged iterate must not move the
   iteration: the reports are pinned bit for bit (as hex floats) to
   those of the solvers that re-formed the Jacobian at every step. *)
let check_pinned what (report : Nonlin.Newton.report) ~iterations ~residual_norm ~x =
  let bits = Printf.sprintf "%h" in
  Alcotest.(check int) (what ^ " iterations") iterations report.Nonlin.Newton.iterations;
  Alcotest.(check string)
    (what ^ " residual norm") (bits residual_norm)
    (bits report.Nonlin.Newton.residual_norm);
  Alcotest.(check (list string))
    (what ^ " x")
    (List.map bits (Array.to_list x))
    (List.map bits (Array.to_list report.Nonlin.Newton.x))

(* one Jacobian per iterate: no two calls at the same point *)
let check_distinct what points =
  Alcotest.(check int)
    (what ^ " distinct Jacobian points")
    (List.length !points)
    (List.length (List.sort_uniq compare !points))

let check_root what residual (x : Linalg.Vec.t) =
  let r = residual x in
  Array.iteri
    (fun i ri ->
      Alcotest.(check bool)
        (Printf.sprintf "%s residual.(%d)" what i)
        true
        (Float.abs ri < 1e-6))
    r

let globalize_tests =
  [
    Alcotest.test_case "trust region solves Rosenbrock from a far start" `Quick
      (with_counters (fun () ->
           let report = Nonlin.Trust_region.solve ~residual:rosenbrock_residual [| -3.; 8. |] in
           Alcotest.(check bool) "converged" true report.Nonlin.Newton.converged;
           check_root "rosenbrock" rosenbrock_residual report.Nonlin.Newton.x;
           Alcotest.(check bool) "counted" true (count "trust_region.solves" >= 1)));
    Alcotest.test_case "trust region solves Powell's badly scaled system" `Quick
      (with_counters (fun () ->
           let report = Nonlin.Trust_region.solve ~residual:powell_residual [| 0.; 1. |] in
           Alcotest.(check bool) "converged" true report.Nonlin.Newton.converged;
           check_root "powell" powell_residual report.Nonlin.Newton.x));
    Alcotest.test_case "trust region forms one Jacobian per accepted iterate" `Quick
      (with_counters (fun () ->
           List.iter
             (fun (what, residual, jacobian, x0, iterations, residual_norm, x) ->
               let rejected0 = count "trust_region.rejected" in
               let jacobian, points = recording jacobian in
               let report = Nonlin.Trust_region.solve ~jacobian ~residual x0 in
               let rejected = count "trust_region.rejected" - rejected0 in
               Alcotest.(check bool) (what ^ " converged") true report.Nonlin.Newton.converged;
               Alcotest.(check bool) (what ^ " steps rejected") true (rejected > 0);
               (* the converged final iterate needs no Jacobian *)
               Alcotest.(check int)
                 (what ^ " Jacobians = accepted steps")
                 (report.Nonlin.Newton.iterations - rejected)
                 (List.length !points);
               check_distinct what points;
               check_pinned what report ~iterations ~residual_norm ~x)
             [
               ("rosenbrock", rosenbrock_residual, rosenbrock_jacobian, [| -3.; 8. |], 24, 0x0p+0,
                [| 0x1p+0; 0x1p+0 |]);
               ("powell", powell_residual, powell_jacobian, [| 0.; 1. |], 42, 0x1.e6p-45,
                [| 0x1.707b2b0b09dafp-17; 0x1.23658dd90954fp+3 |]);
             ]));
    Alcotest.test_case "trust region reads a shared Jacobian without writing it" `Quick
      (with_counters (fun () ->
           (* a callback that refills one matrix, as the periodic solve's
              does: trust region factors a copy, so the matrix holds what
              the callback wrote at every residual and at the next call,
              and the iteration is bitwise the one on fresh matrices *)
           List.iter
             (fun (what, residual, jacobian, x0) ->
               let n = Array.length x0 in
               let shared = Linalg.Mat.zeros n n and written = ref (Linalg.Mat.zeros n n) in
               let bits m = Array.map (Array.map Int64.bits_of_float) m in
               let unchanged where =
                 Alcotest.(check bool)
                   (Printf.sprintf "%s: shared matrix unchanged %s" what where)
                   true
                   (bits shared = bits !written)
               in
               let shared_jacobian x =
                 unchanged "at the next model";
                 Array.iteri (fun i row -> Array.blit row 0 shared.(i) 0 n) (jacobian x);
                 written := Linalg.Mat.copy shared;
                 shared
               in
               let checked_residual x =
                 unchanged "at a residual";
                 residual x
               in
               let report =
                 Nonlin.Trust_region.solve ~jacobian:shared_jacobian ~residual:checked_residual x0
               in
               unchanged "after the solve";
               let fresh = Nonlin.Trust_region.solve ~jacobian ~residual x0 in
               check_pinned what report ~iterations:fresh.Nonlin.Newton.iterations
                 ~residual_norm:fresh.Nonlin.Newton.residual_norm ~x:fresh.Nonlin.Newton.x)
             [
               ("rosenbrock", rosenbrock_residual, rosenbrock_jacobian, [| -3.; 8. |]);
               ("powell", powell_residual, powell_jacobian, [| 0.; 1. |]);
             ]));
    Alcotest.test_case "cascade stops at damped Newton on an easy system" `Quick
      (with_counters (fun () ->
           let residual x = [| (x.(0) *. x.(0)) -. 4. |] in
           let outcome = Nonlin.Polyalg.solve ~residual [| 1. |] in
           Alcotest.(check bool) "converged" true
             outcome.Nonlin.Polyalg.report.Nonlin.Newton.converged;
           Alcotest.(check bool) "damped won" true
             (outcome.Nonlin.Polyalg.strategy = Nonlin.Polyalg.Damped);
           Alcotest.(check int) "one attempt" 1
             (List.length outcome.Nonlin.Polyalg.attempts);
           Alcotest.(check int) "damped counter" 1 (count "newton.strategy.damped");
           Alcotest.(check int) "no escalation" 0 (count "newton.strategy.escalations")));
    Alcotest.test_case "injected linear-solve fault escalates past damped Newton" `Quick
      (with_counters (fun () ->
           Fault.with_armed "linsolve@1" (fun () ->
               let residual x = [| (x.(0) *. x.(0)) -. 4. |] in
               let outcome = Nonlin.Polyalg.solve ~residual [| 1. |] in
               Alcotest.(check bool) "converged" true
                 outcome.Nonlin.Polyalg.report.Nonlin.Newton.converged;
               Alcotest.(check bool) "escalated" true
                 (outcome.Nonlin.Polyalg.strategy <> Nonlin.Polyalg.Damped);
               Alcotest.(check bool) "at least two attempts" true
                 (List.length outcome.Nonlin.Polyalg.attempts >= 2);
               Alcotest.(check bool) "escalations counted" true
                 (count "newton.strategy.escalations" >= 1);
               Alcotest.(check int) "fault fired once" 1 (Fault.injected Fault.Linear_solve))));
    Alcotest.test_case "a linear-solve fault on every solve fails the whole cascade" `Quick
      (with_counters (fun () ->
           (* trust region's Newton point is a linear solve too: with
              every one failed it is left with Cauchy steps, which do
              not crack Powell's badly scaled system *)
           Fault.with_armed "linsolve%1" (fun () ->
               let outcome = Nonlin.Polyalg.solve ~residual:powell_residual [| 0.; 1. |] in
               Alcotest.(check bool) "not converged" false
                 outcome.Nonlin.Polyalg.report.Nonlin.Newton.converged;
               Alcotest.(check (list string))
                 "attempts" [ "damped"; "trust_region" ]
                 (List.map
                    (fun (a : Nonlin.Polyalg.attempt) -> Nonlin.Polyalg.strategy_name a.strategy)
                    outcome.Nonlin.Polyalg.attempts);
               Alcotest.(check bool) "trust region's solves faulted too" true
                 (Fault.injected Fault.Linear_solve > 1))));
    Alcotest.test_case "default cascade exhausts damped Newton, then trust region" `Quick
      (with_counters (fun () ->
           (* x^2 + 1 has no real root: both stages stall at the merit
              minimum x = 0, where the residual is 1 *)
           let residual x = [| (x.(0) *. x.(0)) +. 1. |] in
           let outcome = Nonlin.Polyalg.solve ~residual [| 3. |] in
           Alcotest.(check bool) "not converged" false
             outcome.Nonlin.Polyalg.report.Nonlin.Newton.converged;
           Alcotest.(check (list string))
             "attempts" [ "damped"; "trust_region" ]
             (List.map
                (fun (a : Nonlin.Polyalg.attempt) -> Nonlin.Polyalg.strategy_name a.strategy)
                outcome.Nonlin.Polyalg.attempts);
           List.iter
             (fun (a : Nonlin.Polyalg.attempt) ->
               Alcotest.(check (float 1e-6))
                 (Nonlin.Polyalg.strategy_name a.strategy ^ " residual")
                 1. a.report.Nonlin.Newton.residual_norm)
             outcome.Nonlin.Polyalg.attempts;
           Alcotest.(check int) "failed counter" 1 (count "newton.strategy.failed");
           Alcotest.(check int) "one escalation" 1 (count "newton.strategy.escalations")));
  ]

(* The acceptance case from the paper's hard regime: a strongly
   nonlinear (sinh-limited) one-pole system under deep fast-tone
   amplitude modulation.  From the cold (zero) biperiodic guess, plain
   damped Newton lands on the sinh cliff and its line search stalls;
   the cascade escalates and trust region solves it. *)
let hard_quasiperiodic_system () =
  let beta = 500. and amp = 500. in
  let p1 = 1. and p2 = 20. in
  let dae =
    Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.(sinh (beta *. x.(0))) /. beta |]) ()
  in
  let a t2 = amp *. (1. +. (0.9 *. sin (two_pi *. t2 /. p2))) in
  let sys =
    { Mpde.dae; p1; b_fast = (fun ~t1 ~t2 -> [| -.(a t2) *. sin (two_pi *. t1 /. p1) |]) }
  in
  (sys, p2)

let acceptance_tests =
  [
    Alcotest.test_case "a cold hard-regime quasiperiodic solve allocates under 1 Mwords" `Quick
      (fun () ->
        (* the dense periodic Newton and trust region refill one stacked
           Jacobian and one LU buffer for the whole solve; a matrix per
           iteration or per model (about 43k words each at 121 unknowns)
           takes a cascade of some 40 models to nearly 2 Mwords *)
        Fault.with_armed "" (fun () ->
            let was_enabled = Obs.enabled () in
            Obs.set_enabled false;
            Fun.protect
              ~finally:(fun () -> Obs.set_enabled was_enabled)
              (fun () ->
                let sys, p2 = hard_quasiperiodic_system () in
                let n1 = 11 and n2 = 11 in
                let solve () =
                  Mpde.quasiperiodic sys ~n1 ~n2 ~p2
                    ~guess:(Array.init n2 (fun _ -> Array.init n1 (fun _ -> [| 0. |])))
                in
                (* the first solve fills any lazy cache *)
                ignore (solve ());
                let w0 = Gc.minor_words () in
                ignore (solve ());
                let words = Gc.minor_words () -. w0 in
                Alcotest.(check bool)
                  (Printf.sprintf "%.0f minor words" words)
                  true (words < 1e6))));
    Alcotest.test_case "strong-modulation quasiperiodic: damped fails, cascade wins" `Slow
      (with_counters (fun () ->
           let sys, p2 = hard_quasiperiodic_system () in
           let n1 = 11 and n2 = 11 in
           let guess = Array.init n2 (fun _ -> Array.init n1 (fun _ -> [| 0. |])) in
           (* plain damped Newton: typed failure carrying the report *)
           Alcotest.(check bool) "damped alone fails" true
             (try
                ignore
                  (Mpde.quasiperiodic ~cascade:[ Nonlin.Polyalg.Damped ] sys ~n1 ~n2 ~p2
                     ~guess);
                false
              with Mpde.Solve_failure { stage = "Mpde.quasiperiodic"; report } ->
                not report.Nonlin.Newton.converged);
           Alcotest.(check int) "damped failure counted" 1 (count "newton.strategy.failed");
           (* full cascade: converges, and the strategy counters name
              the winner (trust region for this regime) *)
           let iterations () =
             count "newton.iterations" + count "trust_region.iterations"
           in
           let iterations0 = iterations () and evals0 = count "dae.evals" in
           let res = Mpde.quasiperiodic sys ~n1 ~n2 ~p2 ~guess in
           (* a residual evaluates the circuit once per grid point (n1 n2
              calls) and so does the analytic periodic Jacobian, so an
              iteration costs about three passes of n1 n2 calls; a
              forward-difference Jacobian would add one residual per
              unknown *)
           let iterations = iterations () - iterations0 in
           let evals = count "dae.evals" - evals0 in
           Alcotest.(check bool)
             (Printf.sprintf "%d circuit evaluations in %d iterations" evals iterations)
             true
             (evals >= n1 * n2 && evals < 20 * n1 * n2 * (iterations + 1));
           Alcotest.(check bool) "escalation recorded" true
             (count "newton.strategy.escalations" >= 1);
           Alcotest.(check int) "trust region won" 1 (count "newton.strategy.trust_region");
           (* the doctor reports how often the trust-region model was reused *)
           let findings =
             match
               Obs.Doctor.diagnose_string (Obs.Report.manifest ~git:"test" ~wall_s:1. ~steps:[] ())
             with
             | Ok findings -> findings
             | Error e -> Alcotest.fail e
           in
           Alcotest.(check bool) "doctor names rejected steps" true
             (List.exists
                (fun f ->
                  try
                    ignore
                      (Str.search_forward (Str.regexp_string "trust region rejected")
                         f.Obs.Doctor.summary 0);
                    true
                  with Not_found -> false)
                findings);
           Array.iter
             (Array.iter
                (Array.iter (fun x ->
                     Alcotest.(check bool) "finite solution" true (Float.is_finite x))))
             res.Mpde.slices));
  ]

let suites =
  [ ("globalize", globalize_tests); ("globalize_acceptance", acceptance_tests) ]
