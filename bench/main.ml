(* Benchmark harness: regenerates the data behind every figure of the
   paper (there are no numbered tables; Figs. 1-12 are the evaluation)
   and prints each experiment's solver work.  It keeps no timer: the
   headline speedup and every other wall-clock comparison are timed by
   perfbench/ (workloads vcob-speedup and vcoa-strong), per-kernel
   timings by bench/micro.ml.

   Usage:
     dune exec bench/main.exe                 -- all experiments
     dune exec bench/main.exe -- --only fig7  -- one experiment
     dune exec bench/main.exe -- --csv        -- emit full series as CSV
     dune exec bench/main.exe -- --list       -- list experiment ids

   See EXPERIMENTS.md for the paper-vs-measured record. *)

module Obs = Wampde_obs

let two_pi = 2. *. Float.pi

let csv = ref false
let only : string option ref = ref None

(* ------------------------------------------------------------------ *)
(* Shared setups, computed lazily so `--only figN` stays fast.         *)
(* ------------------------------------------------------------------ *)

let n1 = 25

let unforced_orbit damping force0 =
  let frozen = Circuit.Vco.default_params ~damping ~force0 ~control:(fun _ -> 1.5) () in
  Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1 ~period_hint:(1. /. 0.75)
    (Circuit.Vco.initial_state frozen)

(* [settled_orbit ()] settles the frozen VCO-A once and returns its
   orbit at any n1: the n1 sweeps below share one warm-up transient. *)
let settled_orbit () =
  let frozen = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
  let dae = Circuit.Vco.build frozen in
  let settled =
    Steady.Oscillator.settle dae ~period_hint:(1. /. 0.75) (Circuit.Vco.initial_state frozen)
  in
  fun n1 -> Steady.Oscillator.polish dae ~n1 settled

let vco_a = lazy (Circuit.Vco.vco_a ())
let vco_b = lazy (Circuit.Vco.vco_b ())
let orbit_a = lazy (unforced_orbit 0.0785 4.3e-3)
let orbit_b = lazy (unforced_orbit 1.57 4.0e-3)
let options = lazy (Wampde.Envelope.default_options ~n1 ())

let envelope_a =
  lazy
    (Wampde.Envelope.simulate
       (Circuit.Vco.build (Lazy.force vco_a))
       ~options:(Lazy.force options) ~t2_end:60. ~h2:0.4 ~init:(Lazy.force orbit_a))

let b_window = 300.

let envelope_b =
  lazy
    (Wampde.Envelope.simulate
       (Circuit.Vco.build (Lazy.force vco_b))
       ~options:(Lazy.force options) ~t2_end:b_window ~h2:2. ~init:(Lazy.force orbit_b))

let transient_b pts_per_cycle =
  let dae = Circuit.Vco.build (Lazy.force vco_b) in
  let orbit = Lazy.force orbit_b in
  let x0 = Array.init dae.Dae.dim (fun i -> orbit.Steady.Oscillator.grid.(0).(i)) in
  Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:b_window
    ~h:(1.333 /. float_of_int pts_per_cycle)
    x0

let minmax a = (Array.fold_left Float.min infinity a, Array.fold_left Float.max neg_infinity a)

(* [counted f] runs [f] and pairs its result with [grown], which reads
   a counter's growth across the run, its bucket under one scope label
   if [scope] is given.  The experiment footer prints the totals, so a
   case's own work is a difference. *)
let counted f =
  let snapshot () = (Obs.Metrics.counters (), Obs.Metrics.scoped_counters ()) in
  let before = snapshot () in
  let r = f () in
  let after = snapshot () in
  let read (plain, scoped) ?scope name =
    let find k l = Option.value ~default:0 (List.assoc_opt k l) in
    match scope with
    | None -> find name plain
    | Some s -> Option.fold ~none:0 ~some:(find s) (List.assoc_opt name scoped)
  in
  (r, fun ?scope name -> read after ?scope name - read before ?scope name)

let series2 name xs ys =
  if !csv then Array.iteri (fun i x -> Printf.printf "%s,%g,%g\n" name x ys.(i)) xs

(* ------------------------------------------------------------------ *)
(* Experiments                                                         *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  (* univariate sampling cost of the 2-tone quasiperiodic signal, eq. (1) *)
  let t1p = 0.02 and t2p = 1.0 and pts_per_sine = 15 in
  let total = pts_per_sine * int_of_float (t2p /. t1p) in
  Printf.printf "fig1 | 2-tone signal T1=%.2fs T2=%.0fs: %d univariate samples (paper: 750)\n"
    t1p t2p total;
  let y t = sin (two_pi *. t /. t1p) *. sin (two_pi *. t /. t2p) in
  if !csv then
    for i = 0 to total - 1 do
      let t = t2p *. float_of_int i /. float_of_int total in
      Printf.printf "fig1,%g,%g\n" t (y t)
    done;
  (* sampling cost grows linearly with rate separation *)
  List.iter
    (fun sep ->
      Printf.printf "fig1 |   separation %5.0fx -> %d univariate samples\n" sep
        (int_of_float (float_of_int pts_per_sine *. sep)))
    [ 50.; 100.; 1000. ]

let fig2 () =
  let t1p = 0.02 and t2p = 1.0 in
  let b =
    Sigproc.Bivariate.sample
      ~f:(fun t1 t2 -> sin (two_pi *. t1 /. t1p) *. sin (two_pi *. t2 /. t2p))
      ~p1:t1p ~p2:t2p ~n1:15 ~n2:15
  in
  let y t = sin (two_pi *. t /. t1p) *. sin (two_pi *. t /. t2p) in
  let worst = ref 0. in
  for k = 0 to 2000 do
    let t = t2p *. float_of_int k /. 2000. in
    worst := Float.max !worst (Float.abs (Sigproc.Bivariate.diagonal b t -. y t))
  done;
  Printf.printf
    "fig2 | bivariate form: %d samples (paper: 225, 3.3x fewer than fig1), recovery err %.3f\n"
    (Sigproc.Bivariate.sample_count b) !worst;
  if !csv then
    Array.iteri
      (fun i row -> Array.iteri (fun j v -> Printf.printf "fig2,%d,%d,%g\n" i j v) row)
      b.Sigproc.Bivariate.grid

let fig3 () =
  let pts = Sigproc.Bivariate.sawtooth_path ~p1:0.02 ~p2:1.0 ~t_max:0.2 200 in
  let inside = Array.for_all (fun (a, b) -> a >= 0. && a <= 0.02 && b >= 0. && b <= 1.) pts in
  Printf.printf "fig3 | sawtooth characteristic path: %d points, all inside [0,T1]x[0,T2]: %b\n"
    (Array.length pts) inside;
  if !csv then Array.iter (fun (a, b) -> Printf.printf "fig3,%g,%g\n" a b) pts

let fm_params = (1.0e6, 2.0e4, 8. *. Float.pi)

let fig4 () =
  let f0, f2, k = fm_params in
  let x t = cos ((two_pi *. f0 *. t) +. (k *. cos (two_pi *. f2 *. t))) in
  let inst t = f0 -. (k *. f2 *. sin (two_pi *. f2 *. t)) in
  let fmin = f0 -. (k *. f2) and fmax = f0 +. (k *. f2) in
  Printf.printf
    "fig4 | FM signal f0=1MHz f2=20kHz k=8pi: instantaneous frequency %.3g..%.3g Hz\n" fmin
    fmax;
  if !csv then
    for i = 0 to 2000 do
      let t = 7.0e-5 *. float_of_int i /. 2000. in
      Printf.printf "fig4,%g,%g,%g\n" t (x t) (inst t)
    done

let fig5 () =
  let f0, f2, _ = fm_params in
  Printf.printf
    "fig5 | unwarped bivariate FM (eq 5): slow-axis harmonics needed vs modulation index k\n";
  List.iter
    (fun k_over_pi ->
      let k = Float.pi *. k_over_pi in
      let n2 = 513 in
      let cross =
        Array.init n2 (fun j ->
            cos (k *. cos (two_pi *. float_of_int j /. float_of_int n2)))
      in
      let needed = Fourier.Series.harmonics_needed ~tol:1e-3 cross in
      Printf.printf "fig5 |   k = %4.0f pi -> %3d harmonics (theory ~k/pi cycles = %.0f)\n"
        k_over_pi needed (k /. Float.pi))
    [ 2.; 4.; 8.; 16.; 32. ];
  let u =
    Sigproc.Bivariate.sample
      ~f:(fun t1 t2 ->
        cos ((two_pi *. f0 *. t1) +. (8. *. Float.pi *. cos (two_pi *. f2 *. t2))))
      ~p1:(1. /. f0) ~p2:(1. /. f2) ~n1:15 ~n2:25
  in
  Printf.printf "fig5 | undulation count on 15x25 grid: %d (not compact)\n"
    (Sigproc.Bivariate.undulation_count u)

let fig6 () =
  let _, f2, _ = fm_params in
  Printf.printf "fig6 | warped bivariate FM (eqs 6-7): harmonics needed vs k\n";
  List.iter
    (fun k_over_pi ->
      (* the warped form cos(2 pi t1) is independent of t2 and of k *)
      let n2 = 513 in
      let cross = Array.init n2 (fun _ -> cos (two_pi *. 0.3)) in
      let needed = Fourier.Series.harmonics_needed ~tol:1e-3 cross in
      Printf.printf "fig6 |   k = %4.0f pi -> %3d harmonics (constant: compact)\n" k_over_pi
        needed)
    [ 2.; 4.; 8.; 16.; 32. ];
  let w =
    Sigproc.Bivariate.sample
      ~f:(fun t1 _ -> cos (two_pi *. t1))
      ~p1:1. ~p2:(1. /. f2) ~n1:15 ~n2:25
  in
  Printf.printf "fig6 | undulation count on 15x25 grid: %d (compact)\n"
    (Sigproc.Bivariate.undulation_count w)

let fig7 () =
  let res = Lazy.force envelope_a in
  let om = res.Wampde.Envelope.omega in
  let lo, hi = minmax om in
  Printf.printf
    "fig7 | VCO-A local frequency: %.4f..%.4f MHz, modulation factor %.2f (paper: ~3x)\n" lo hi
    (hi /. lo);
  series2 "fig7" res.Wampde.Envelope.t2 om

let fig8 () =
  let res = Lazy.force envelope_a in
  let amp = Wampde.Envelope.amplitude_track res ~component:Circuit.Vco.idx_voltage in
  let lo, hi = minmax amp in
  (* shape change: total harmonic distortion of the t1 waveform per slice *)
  let thd_lo = ref infinity and thd_hi = ref neg_infinity in
  Array.iteri
    (fun idx _ ->
      let s = Wampde.Envelope.slice res ~index:idx ~component:Circuit.Vco.idx_voltage in
      let thd = Fourier.Series.total_harmonic_distortion (Fourier.Series.coeffs s) in
      thd_lo := Float.min !thd_lo thd;
      thd_hi := Float.max !thd_hi thd)
    res.Wampde.Envelope.slices;
  Printf.printf
    "fig8 | VCO-A bivariate voltage: amplitude %.3f..%.3f V, shape THD %.3f..%.3f (both modulate)\n"
    lo hi !thd_lo !thd_hi;
  if !csv then
    Array.iteri
      (fun idx t2 ->
        if idx mod 5 = 0 then begin
          let s = Wampde.Envelope.slice res ~index:idx ~component:Circuit.Vco.idx_voltage in
          Array.iteri
            (fun j v ->
              Printf.printf "fig8,%g,%g,%g\n" (float_of_int j /. float_of_int n1) t2 v)
            s
        end)
      res.Wampde.Envelope.t2

let fig9 () =
  let res = Lazy.force envelope_a in
  let dae = Circuit.Vco.build (Lazy.force vco_a) in
  let orbit = Lazy.force orbit_a in
  let x0 = Array.init dae.Dae.dim (fun i -> orbit.Steady.Oscillator.grid.(0).(i)) in
  let traj =
    Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:60. ~h:(1.333 /. 1000.)
      x0
  in
  let w = Wampde.Envelope.warping res in
  let worst = ref 0. in
  let amp = ref 0. in
  for k = 0 to 3000 do
    let t = 60. *. float_of_int k /. 3000. in
    let vw = Sigproc.Warp.eval w ~component:Circuit.Vco.idx_voltage t in
    let vt = Transient.interpolate traj Circuit.Vco.idx_voltage t in
    if !csv then Printf.printf "fig9,%g,%g,%g\n" t vw vt;
    worst := Float.max !worst (Float.abs (vw -. vt));
    amp := Float.max !amp (Float.abs vt)
  done;
  Printf.printf
    "fig9 | VCO-A WaMPDE vs transient: max deviation %.4f V on +-%.2f V waveform over 45 cycles\n"
    !worst !amp;
  Printf.printf "fig9 | (paper: 'so close that it is difficult to tell the two apart')\n"

let fig10 () =
  let res = Lazy.force envelope_b in
  let om = res.Wampde.Envelope.omega in
  let lo, hi = minmax om in
  Printf.printf
    "fig10 | VCO-B local frequency over %.0f us: %.4f..%.4f MHz (smaller swing; settling visible)\n"
    b_window lo hi;
  series2 "fig10" res.Wampde.Envelope.t2 om

let fig11 () =
  let res = Lazy.force envelope_b in
  let amp = Wampde.Envelope.amplitude_track res ~component:Circuit.Vco.idx_voltage in
  let lo, hi = minmax amp in
  Printf.printf
    "fig11 | VCO-B bivariate voltage amplitude: %.4f..%.4f V (varies %.2f%%; paper: 'very little')\n"
    lo hi
    ((hi -. lo) /. hi *. 100.);
  series2 "fig11" res.Wampde.Envelope.t2 amp

let fig12 () =
  let res = Lazy.force envelope_b in
  let times = Array.init 20_001 (fun i -> b_window *. float_of_int i /. 20_000.) in
  let w = Wampde.Envelope.warping res in
  let v_wampde = Array.map (Sigproc.Warp.eval w ~component:Circuit.Vco.idx_voltage) times in
  Printf.printf "fig12 | VCO-B phase error of transient vs WaMPDE over %.0f us:\n" b_window;
  List.iter
    (fun pts ->
      let traj = transient_b pts in
      let v_tr =
        Array.map (fun t -> Transient.interpolate traj Circuit.Vco.idx_voltage t) times
      in
      let tseries, eseries =
        Sigproc.Zero_crossing.phase_error ~reference:(times, v_wampde) ~test:(times, v_tr)
      in
      let pe = Linalg.Vec.norm_inf eseries in
      Printf.printf "fig12 |   %4d pts/cycle -> max phase error %.3f cycles\n" pts pe;
      if !csv then
        Array.iteri (fun i t -> Printf.printf "fig12-%d,%g,%g\n" pts t eseries.(i)) tseries)
    [ 50; 100; 1000 ];
  Printf.printf
    "fig12 | (paper: 50 pts/cycle builds up error, 100 reduces it, ~1000 needed to match)\n"

let mpdefm () =
  (* the unwarped MPDE handles AM but not FM *)
  let p1 = 0.01 in
  let a t2 = 1. +. (0.5 *. sin (0.6 *. t2)) in
  let sys =
    {
      Mpde.dae = Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.x.(0) |]) ();
      p1;
      b_fast = (fun ~t1 ~t2 -> [| -.(a t2) *. sin (two_pi *. t1 /. p1) |]);
    }
  in
  let init = Mpde.periodic_initial sys ~n1:15 ~guess:(Array.init 15 (fun _ -> [| 0. |])) in
  let res = Mpde.simulate sys ~n1:15 ~t2_end:5. ~h2:0.05 ~init in
  let full =
    Dae.of_ode ~dim:1 ~rhs:(fun ~t x -> [| -.x.(0) +. (a t *. sin (two_pi *. t /. p1)) |]) ()
  in
  let w = Mpde.warping res in
  let x0 = [| Sigproc.Warp.xhat w ~component:0 ~t1:0. 0. |] in
  let traj =
    Transient.integrate full ~method_:Transient.Trapezoidal ~t0:0. ~t1:5. ~h:(p1 /. 100.) x0
  in
  let worst = ref 0. in
  for k = 0 to 500 do
    let t = 5. *. float_of_int k /. 500. in
    worst :=
      Float.max !worst
        (Float.abs (Sigproc.Warp.eval w ~component:0 t -. Transient.interpolate traj 0 t))
  done;
  Printf.printf "mpdefm | MPDE on AM two-rate problem: max error vs transient %.4f (works)\n"
    !worst;
  (* FM: harmonics needed along t2 grows ~k for the unwarped form *)
  let needed k =
    let n2 = 513 in
    let cross =
      Array.init n2 (fun j -> cos (k *. cos (two_pi *. float_of_int j /. float_of_int n2)))
    in
    Fourier.Series.harmonics_needed ~tol:1e-3 cross
  in
  Printf.printf
    "mpdefm | unwarped FM cost grows with modulation index: k=2pi:%d k=8pi:%d k=32pi:%d\n"
    (needed (2. *. Float.pi))
    (needed (8. *. Float.pi))
    (needed (32. *. Float.pi));
  Printf.printf "mpdefm | warped (WaMPDE) cost is constant: 1 harmonic at every k\n"

let lock () =
  (* quasiperiodic WaMPDE: FM-quasiperiodic steady state of VCO-A, plus
     the representational special cases of Section 4.1 *)
  let dae = Circuit.Vco.build (Lazy.force vco_a) in
  let sol =
    Wampde.Quasiperiodic.from_orbit dae ~options:(Lazy.force options) ~p2:40. ~n2:15
      ~init:(Lazy.force orbit_a) ()
  in
  let lo, hi = minmax sol.Wampde.Quasiperiodic.omega in
  Printf.printf
    "lock | VCO-A FM-quasiperiodic steady state (periodic BCs): omega %.4f..%.4f MHz, mean %.4f\n"
    lo hi
    (Wampde.Quasiperiodic.mean_frequency sol);
  Printf.printf "lock | residual %.2e (solver auto: matrix-free at this size)\n"
    (Wampde.Quasiperiodic.residual_norm dae ~options:(Lazy.force options) sol);
  (* special cases of eq. (24): omega0 = w2 (entrained) and w2/2 (divided) *)
  let w2 = 1. /. 40. in
  let x ~w0 t = cos (two_pi *. w0 *. t) *. (1. +. (0.3 *. cos (two_pi *. w2 *. t))) in
  let periodic ~w0 ~period =
    let err = ref 0. in
    for i = 0 to 100 do
      let t = 2.3 *. float_of_int i in
      err := Float.max !err (Float.abs (x ~w0 t -. x ~w0 (t +. period)))
    done;
    !err < 1e-9
  in
  Printf.printf "lock | eq (24) special cases: omega0 = w2 -> T2-periodic (mode-locked): %b\n"
    (periodic ~w0:w2 ~period:(1. /. w2));
  Printf.printf "lock | omega0 = w2/2 -> 2 T2-periodic (period multiplication): %b\n"
    (periodic ~w0:(w2 /. 2.) ~period:(2. /. w2))

let krylov_bench () =
  (* dense LU vs matrix-free Newton-Krylov (FFT-diagonalized averaged
     block preconditioner) on the envelope collocation solves, as the
     fast-axis grid n1 grows: the work each path does and how closely
     their answers agree.  The dense path refactors a (n1 n + 1)^2
     Jacobian; the Krylov path never assembles it.  Strong modulation
     (full control swing at h2 = 2 us steps) is the regime the Krylov
     path is for: the Jacobian changes enough between slow steps that
     the dense path must refactor nearly every step.  perfbench's
     vcoa-strong workload times both paths. *)
  let t2_end = 60. in
  let h2 = 2. in
  let dae = Circuit.Vco.build (Lazy.force vco_a) in
  Printf.printf
    "krylov | envelope solves, dense LU vs matrix-free GMRES (t2_end = %g us, h2 = %g):\n"
    t2_end h2;
  let orbit_at = settled_orbit () in
  List.iter
    (fun n1 ->
      let orbit = orbit_at n1 in
      let run solver =
        let options = Wampde.Envelope.default_options ~n1 ~solver () in
        let res, grown =
          counted (fun () -> Wampde.Envelope.simulate dae ~options ~t2_end ~h2 ~init:orbit)
        in
        (res, grown "lu.factor", grown "gmres.iterations")
      in
      let res_d, lu_d, _ = run Linalg.Structured.Dense in
      let res_k, lu_k, gm_k = run Linalg.Structured.Krylov in
      let om_d = res_d.Wampde.Envelope.omega and om_k = res_k.Wampde.Envelope.omega in
      let rel_err = ref 0. in
      Array.iteri
        (fun i om ->
          rel_err := Float.max !rel_err (Float.abs (om_k.(i) -. om) /. Float.abs om))
        om_d;
      let unknowns = (n1 * dae.Dae.dim) + 1 in
      Printf.printf
        "krylov |   n1 = %3d (%5d unknowns): dense (%d LU), krylov (%d LU, %d gmres iters), omega rel err %.1e\n"
        n1 unknowns lu_d lu_k gm_k !rel_err)
    [ 65; 101; 129; 161 ];
  Printf.printf
    "krylov | (dense work grows as n1^3 per factorization, krylov as n1^2 per GMRES iteration:\n\
     krylov |  the matvec multiplies by the dense n1 x n1 D, the preconditioner is a real DFT)\n"

(* ------------------------------------------------------------------ *)
(* Ablations: design choices called out in DESIGN.md                   *)
(* ------------------------------------------------------------------ *)

let ablation_n1 () =
  (* the orbit's frequency against the spectral collocation size n1:
     the error falls exponentially until it reaches rounding *)
  let orbit_at = settled_orbit () in
  let f_ref = (orbit_at 61).Steady.Oscillator.omega in
  Printf.printf "ablation-n1 | unforced VCO frequency error vs collocation size (ref n1=61):\n";
  List.iter
    (fun n1 ->
      let orbit = orbit_at n1 in
      Printf.printf "ablation-n1 |   n1 = %2d -> |f - f_ref| = %.2e MHz\n" n1
        (Float.abs (orbit.Steady.Oscillator.omega -. f_ref)))
    [ 9; 13; 17; 21; 25; 31 ];
  Printf.printf "ablation-n1 | (spectral accuracy: error falls by ~10x every few points)\n"

let ablation_h2 () =
  (* trapezoidal theta-method in t2 is 2nd order; BE 1st order *)
  let dae = Circuit.Vco.build (Lazy.force vco_a) in
  let orbit = Lazy.force orbit_a in
  let run theta h2 =
    let options = { (Lazy.force options) with Wampde.Envelope.theta } in
    let res = Wampde.Envelope.simulate dae ~options ~t2_end:20. ~h2 ~init:orbit in
    res.Wampde.Envelope.omega.(Array.length res.Wampde.Envelope.omega - 1)
  in
  let reference = run 0.5 0.025 in
  Printf.printf "ablation-h2 | omega(20us) error vs slow step (reference h2 = 0.025):\n";
  List.iter
    (fun h2 ->
      Printf.printf "ablation-h2 |   h2 = %4.2f  trapezoidal %.2e   backward-Euler %.2e\n" h2
        (Float.abs (run 0.5 h2 -. reference))
        (Float.abs (run 1.0 h2 -. reference)))
    [ 0.8; 0.4; 0.2; 0.1 ];
  Printf.printf
    "ablation-h2 | (trapezoidal error falls 4x per halving: order 2; BE only 2x: order 1)\n"

let ablation_solver () =
  (* dense LU vs matrix-free Krylov (per-slice bordered FFT-block
     preconditioner) on the quasiperiodic system, as n2 grows: the
     periodic solve's own Newton iterations and LU factors (its scope),
     GMRES iterations and refinements of the warm-up's step.  The
     envelope warm-up before the solve runs on the size-based path
     whichever solver the solve takes *)
  let dae = Circuit.Vco.build (Lazy.force vco_a) and init = Lazy.force orbit_a in
  Printf.printf "ablation-solver | quasiperiodic Newton: dense LU vs matrix-free Krylov:\n";
  List.iter
    (fun n2 ->
      let work solver =
        let options = { (Lazy.force options) with Wampde.Envelope.solver } in
        let _, grown =
          counted (fun () -> Wampde.Quasiperiodic.from_orbit dae ~options ~p2:40. ~n2 ~init ())
        in
        Printf.sprintf "%d newton, %d lu, %d gmres, %d refinements"
          (grown ~scope:"quasiperiodic" "newton.iterations")
          (grown ~scope:"quasiperiodic" "lu.factor")
          (grown "gmres.iterations")
          (grown "quasiperiodic.refinements")
      in
      let dense = work Linalg.Structured.Dense in
      let krylov = work Linalg.Structured.Krylov in
      Printf.printf "ablation-solver |   n2 = %2d (%4d unknowns): dense %s; krylov %s\n" n2
        (n2 * ((n1 * 4) + 1))
        dense krylov)
    [ 7; 11; 15; 21 ];
  Printf.printf
    "ablation-solver | (iterative linear algebra scales as the paper's [Saa96] reference)\n"

let robust () =
  (* solver-hardening sweep: a sinh-limited one-pole system under deep
     fast-tone amplitude modulation, solved for the biperiodic steady
     state from a cold (zero) guess.  As the nonlinearity stiffens,
     plain damped Newton lands on the sinh cliff and its line search
     stalls; the globalization cascade escalates and keeps solving.
     The numbers behind the hard-case table in EXPERIMENTS.md. *)
  let solve_case beta cascade =
    let p1 = 1. and p2 = 20. in
    let dae =
      Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.(sinh (beta *. x.(0))) /. beta |]) ()
    in
    let a t2 = beta *. (1. +. (0.9 *. sin (two_pi *. t2 /. p2))) in
    let sys =
      {
        Mpde.dae;
        p1;
        b_fast = (fun ~t1 ~t2 -> [| -.(a t2) *. sin (two_pi *. t1 /. p1) |]);
      }
    in
    let n1 = 11 and n2 = 11 in
    let guess = Array.init n2 (fun _ -> Array.init n1 (fun _ -> [| 0. |])) in
    let strategy_counter s = "newton.strategy." ^ Nonlin.Polyalg.strategy_name s in
    match counted (fun () -> Mpde.quasiperiodic ?cascade sys ~n1 ~n2 ~p2 ~guess) with
    | _, grown ->
      let winner =
        List.find_opt
          (fun s -> grown (strategy_counter s) > 0)
          (List.rev Nonlin.Polyalg.default_cascade)
      in
      `Solved (winner, grown "newton.iterations" + grown "trust_region.iterations")
    | exception Mpde.Solve_failure _ -> `Failed
  in
  Printf.printf
    "robust | strong-modulation sinh quasiperiodic from cold start: plain Newton vs cascade\n";
  Printf.printf "robust |   beta    plain Newton          cascade\n";
  List.iter
    (fun beta ->
      let plain = solve_case beta (Some [ Nonlin.Polyalg.Damped ]) in
      let full = solve_case beta None in
      Printf.printf "robust |   %4.0f    %-18s  %s\n" beta
        (match plain with
        | `Failed -> "FAIL"
        | `Solved (_, iters) -> Printf.sprintf "ok %3d it" iters)
        (match full with
        | `Failed -> "FAIL"
        | `Solved (winner, iters) ->
          Printf.sprintf "ok via %-12s %3d it"
            (match winner with
            | Some s -> Nonlin.Polyalg.strategy_name s
            | None -> "?")
            iters))
    [ 100.; 200.; 300.; 400.; 500.; 600. ];
  Printf.printf
    "robust | (the cascade keeps solving after plain Newton starts failing; trust region wins)\n"

let health () =
  (* numerical-health monitors vs t1 resolution: the VCO-A envelope run
     of Figs. 8-9 swept over n1.  Coarse grids light up the
     under-resolution monitor (spectral tail energy above tolerance);
     generous grids trip the over-resolution monitor; GMRES quality
     (iterations per solve against the restart window) tracks the
     preconditioner as the grid grows.  The numbers behind the health
     table in EXPERIMENTS.md. *)
  let t2_end = 30. in
  let h2 = 0.4 in
  let dae = Circuit.Vco.build (Lazy.force vco_a) in
  Printf.printf
    "health | VCO-A envelope t1-grid and solver health vs n1 (t2_end = %g us, h2 = %g us):\n"
    t2_end h2;
  Printf.printf "health |    n1   tail energy   harmonics used   gmres it/solve   warnings\n";
  let orbit_at = settled_orbit () in
  List.iter
    (fun n1 ->
      let orbit = orbit_at n1 in
      Obs.Health.reset ();
      let options = Wampde.Envelope.default_options ~n1 ~solver:Linalg.Structured.Krylov () in
      let _, grown =
        counted (fun () -> Wampde.Envelope.simulate dae ~options ~t2_end ~h2 ~init:orbit)
      in
      let g name = Obs.Metrics.value (Obs.Metrics.gauge name) in
      let tail = g "health.tail_energy"
      and needed = g "health.effective_harmonics"
      and avail = g "health.harmonics_available" in
      let solves = grown "gmres.solves" in
      let gmres_per_solve =
        if solves = 0 then nan else float_of_int (grown "gmres.iterations") /. float_of_int solves
      in
      let warnings = grown "health.warnings" in
      let gmres_col =
        if Float.is_nan gmres_per_solve then "  dense" else Printf.sprintf "%7.1f" gmres_per_solve
      in
      Printf.printf "health |   %3d   %.3e        %2.0f / %-2.0f        %s          %d\n" n1 tail
        needed avail gmres_col warnings)
    [ 9; 15; 25; 41 ];
  Printf.printf
    "health | (tail energy falls exponentially with n1; the monitors flag both coarse and \
     wasteful grids)\n"

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig3", fig3);
    ("fig4", fig4);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("krylov", krylov_bench);
    ("mpdefm", mpdefm);
    ("lock", lock);
    ("ablation-n1", ablation_n1);
    ("ablation-h2", ablation_h2);
    ("ablation-solver", ablation_solver);
    ("robust", robust);
    ("health", health);
  ]

let () =
  let args = Array.to_list Sys.argv in
  let rec parse = function
    | [] -> ()
    | "--csv" :: rest ->
      csv := true;
      parse rest
    | "--only" :: id :: rest ->
      only := Some id;
      parse rest
    | "--list" :: _ ->
      List.iter (fun (id, _) -> print_endline id) experiments;
      exit 0
    | _ :: rest -> parse rest
  in
  parse args;
  let selected =
    match !only with
    | None -> experiments
    | Some id -> List.filter (fun (name, _) -> name = id) experiments
  in
  if selected = [] then begin
    Printf.eprintf "unknown experiment id; use --list\n";
    exit 1
  end;
  (* Per-experiment solver-work accounting.  Metrics are reset before
     each experiment, so shared lazy setups (orbits, envelope runs) are
     charged to the first experiment that forces them. *)
  Obs.set_enabled true;
  List.iter
    (fun (id, run) ->
      Obs.Metrics.reset ();
      let gc0 = Gc.quick_stat () in
      run ();
      let gc1 = Gc.quick_stat () in
      let alloc_words =
        gc1.Gc.minor_words -. gc0.Gc.minor_words
        +. (gc1.Gc.major_words -. gc0.Gc.major_words)
        -. (gc1.Gc.promoted_words -. gc0.Gc.promoted_words)
      in
      let c name = Obs.Metrics.count (Obs.Metrics.counter name) in
      Printf.printf
        "%s | solver work: %d newton iters, %d lu factors, %d gmres iters, %d rejects | alloc \
         %.1f Mw\n"
        id (c "newton.iterations") (c "lu.factor") (c "gmres.iterations")
        (c "transient.rejects" + c "envelope.rejects")
        (alloc_words /. 1e6);
      print_newline ())
    selected;
  Obs.set_enabled false
