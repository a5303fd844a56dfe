(* Tests for the plain (unwarped) MPDE baseline. *)

let approx_tol tol = Alcotest.(check (float tol))
let two_pi = 2. *. Float.pi

(* Linear RC filter driven by a fast tone whose amplitude is modulated
   slowly: the canonical AM two-rate problem.  x' + x = a(t2) sin(2 pi
   t1 / p1).  Fast steady state at frozen t2:
   x = a(t2) (sin wt - w cos wt + w e^-t ...) periodic part:
   a (sin(w t) - w cos(w t)) / (1 + w^2) with w = 2 pi / p1. *)
let am_system ~p1 ~a =
  let dae = Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.x.(0) |]) () in
  { Mpde.dae; p1; b_fast = (fun ~t1 ~t2 -> [| -.(a t2) *. sin (two_pi *. t1 /. p1) |]) }

let am_exact ~p1 ~a t1 t2 =
  let w = two_pi /. p1 in
  a t2 *. ((sin (w *. t1)) -. (w *. cos (w *. t1))) /. (1. +. (w *. w))

let mpde_tests =
  [
    Alcotest.test_case "periodic_initial matches fast steady state" `Quick (fun () ->
        let p1 = 0.01 in
        let a _ = 1. in
        let sys = am_system ~p1 ~a in
        let init = Mpde.periodic_initial sys ~n1:15 ~guess:(Array.init 15 (fun _ -> [| 0. |])) in
        for j = 0 to 14 do
          let t1 = p1 *. float_of_int j /. 15. in
          approx_tol 1e-8 "fast ss" (am_exact ~p1 ~a t1 0.) init.(j).(0)
        done);
    Alcotest.test_case "envelope MPDE tracks slow amplitude modulation" `Quick (fun () ->
        let p1 = 0.01 and p2 = 10. in
        (* slow modulation is quasi-static for the unit-time-constant filter *)
        let a t2 = 1. +. (0.5 *. sin (two_pi *. t2 /. p2)) in
        let sys = am_system ~p1 ~a in
        let init = Mpde.periodic_initial sys ~n1:15 ~guess:(Array.init 15 (fun _ -> [| 0. |])) in
        let res = Mpde.simulate sys ~n1:15 ~t2_end:p2 ~h2:0.05 ~init in
        (* compare the bivariate solution at a few probe points; the slow
           filter lag is ~ 1/(2 pi / p2 .. ) -> small correction, tolerate 2% *)
        let probes = [ (0.0025, 2.5); (0.005, 5.0); (0.0075, 7.5) ] in
        let w = Mpde.warping res in
        List.iter
          (fun (t1, t2) ->
            let got = Sigproc.Warp.xhat w ~component:0 ~t1:(t1 /. p1) t2 in
            let expect = am_exact ~p1 ~a t1 t2 in
            Alcotest.(check bool) "close" true (Float.abs (got -. expect) < 0.05))
          probes);
    Alcotest.test_case "fixed-omega Krylov march agrees with dense" `Quick (fun () ->
        let p1 = 0.01 and p2 = 10. in
        let a t2 = 1. +. (0.5 *. sin (two_pi *. t2 /. p2)) in
        let sys = am_system ~p1 ~a in
        let init = Mpde.periodic_initial sys ~n1:15 ~guess:(Array.init 15 (fun _ -> [| 0. |])) in
        (* the GMRES solve count shows which path ran *)
        let run solver =
          Wampde_obs.Metrics.with_isolated (fun () ->
              Wampde_obs.set_enabled true;
              let res = Mpde.simulate ~solver sys ~n1:15 ~t2_end:p2 ~h2:0.05 ~init in
              (res, Wampde_obs.Metrics.count (Wampde_obs.Metrics.counter "gmres.solves")))
        in
        let dense, dense_solves = run Linalg.Structured.Dense in
        let krylov, krylov_solves = run Linalg.Structured.Krylov in
        Alcotest.(check int) "dense runs no GMRES" 0 dense_solves;
        Alcotest.(check bool) "krylov runs GMRES" true (krylov_solves > 0);
        Alcotest.(check (array (float 0.))) "same t2 grid" dense.Mpde.t2 krylov.Mpde.t2;
        (* both paths iterate each step to the same Newton residual
           (1e-9); GMRES directions are only accurate to its forcing
           term 1e-6 relative, which bounds the disagreement on this
           unit-amplitude solution *)
        Array.iteri
          (fun m slice ->
            Array.iteri
              (fun j x -> approx_tol 1e-6 "grid state" x.(0) krylov.Mpde.slices.(m).(j).(0))
              slice)
          dense.Mpde.slices);
    Alcotest.test_case "diagonal recovery equals brute-force transient" `Quick (fun () ->
        let p1 = 0.02 in
        let a t2 = 1. +. (0.3 *. sin (0.7 *. t2)) in
        let sys = am_system ~p1 ~a in
        let init = Mpde.periodic_initial sys ~n1:15 ~guess:(Array.init 15 (fun _ -> [| 0. |])) in
        let res = Mpde.simulate sys ~n1:15 ~t2_end:3. ~h2:0.05 ~init in
        (* brute force: full dae with fast forcing folded in, started on the
           fast steady state *)
        let full =
          Dae.of_ode ~dim:1
            ~rhs:(fun ~t x -> [| -.x.(0) +. (a t *. sin (two_pi *. t /. p1)) |])
            ()
        in
        let w = Mpde.warping res in
        let x0 = [| Sigproc.Warp.xhat w ~component:0 ~t1:0. 0. |] in
        let traj =
          Transient.integrate full ~method_:Transient.Trapezoidal ~t0:0. ~t1:3.
            ~h:(p1 /. 100.) x0
        in
        let worst = ref 0. in
        for k = 0 to 300 do
          let t = 3. *. float_of_int k /. 300. in
          let got = Sigproc.Warp.eval w ~component:0 t in
          let expect = Transient.interpolate traj 0 t in
          worst := Float.max !worst (Float.abs (got -. expect))
        done;
        Alcotest.(check bool) "waveforms agree" true (!worst < 0.02));
    Alcotest.test_case "quasiperiodic MPDE: biperiodic steady state" `Quick (fun () ->
        let p1 = 0.01 and p2 = 5. in
        let a t2 = 1. +. (0.5 *. sin (two_pi *. t2 /. p2)) in
        let sys = am_system ~p1 ~a in
        let n1 = 11 and n2 = 11 in
        let guess = Array.init n2 (fun _ -> Array.init n1 (fun _ -> [| 0. |])) in
        let res = Mpde.quasiperiodic sys ~n1 ~n2 ~p2 ~guess in
        (* the filter follows the quasi-static fast steady state with a slow
           first-order lag; verify against a settled transient instead of
           the instantaneous formula *)
        let full =
          Dae.of_ode ~dim:1
            ~rhs:(fun ~t x -> [| -.x.(0) +. (a t *. sin (two_pi *. t /. p1)) |])
            ()
        in
        let traj =
          Transient.integrate full ~method_:Transient.Trapezoidal ~t0:0. ~t1:(3. *. p2)
            ~h:(p1 /. 60.) [| 0. |]
        in
        (* compare at t in the third slow period, mapped into the
           bivariate (t2 wraps modulo p2); the bound is relative to the
           signal, whose amplitude is only ~2.4e-3 *)
        let w = Mpde.warping res in
        let worst = ref 0. and peak = ref 0. in
        for k = 0 to 500 do
          let t = (2. *. p2) +. (p2 *. float_of_int k /. 500.) in
          let got = Sigproc.Warp.eval w ~component:0 t in
          let expect = Transient.interpolate traj 0 t in
          worst := Float.max !worst (Float.abs (got -. expect));
          peak := Float.max !peak (Float.abs expect)
        done;
        Alcotest.(check bool)
          (Printf.sprintf "biperiodic matches settled transient (error %.2e, peak %.2e)" !worst !peak)
          true
          (!worst < 0.05 *. !peak));
    Alcotest.test_case "even n1 rejected" `Quick (fun () ->
        let sys = am_system ~p1:0.01 ~a:(fun _ -> 1.) in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Mpde.periodic_initial sys ~n1:10 ~guess:(Array.init 10 (fun _ -> [| 0. |])));
             false
           with Invalid_argument _ -> true));
    Alcotest.test_case "mis-shaped grids are rejected with the expected shape" `Quick (fun () ->
        let sys = am_system ~p1:0.01 ~a:(fun _ -> 1.) in
        let grid n dim = Array.init n (fun _ -> Array.make dim 0.) in
        let rejects what expected f =
          match f () with
          | _ -> Alcotest.failf "%s: expected Invalid_argument" what
          | exception Invalid_argument msg -> Alcotest.(check string) what expected msg
        in
        let shape fn = Printf.sprintf "Mpde.%s: expected 15 states of dimension 1" fn in
        List.iter
          (fun (what, guess) ->
            rejects what (shape "periodic_initial") (fun () ->
                ignore (Mpde.periodic_initial sys ~n1:15 ~guess)))
          [ ("13 states", grid 13 1); ("17 states", grid 17 1); ("states of length 2", grid 15 2) ];
        rejects "simulate init" (shape "simulate") (fun () ->
            ignore (Mpde.simulate sys ~n1:15 ~t2_end:1. ~h2:0.25 ~init:(grid 15 2)));
        rejects "quasiperiodic inner arrays" (shape "quasiperiodic") (fun () ->
            ignore
              (Mpde.quasiperiodic sys ~n1:15 ~n2:3 ~p2:1.
                 ~guess:[| grid 15 1; grid 13 1; grid 15 1 |])));
  ]

let suites = [ ("mpde", mpde_tests) ]
