open Linalg
module Obs = Wampde_obs

let c_newton_iters = Obs.Metrics.counter "newton.iterations"
let c_env_steps = Obs.Metrics.counter "envelope.steps"
let c_env_rejects = Obs.Metrics.counter "envelope.rejects"
let c_jac_refresh = Obs.Metrics.counter "envelope.jacobian_refreshes"
let c_rescues = Obs.Metrics.counter "envelope.rescues"

type options = {
  n1 : int;
  theta : float;
  phase : Dae.Phase.t;
  differentiation : [ `Spectral | `Fd4 ];
  newton : Nonlin.Newton.options;
  solver : Structured.strategy;
  rescue : bool;
}

let default_options ?(n1 = 25) ?(phase = Dae.Phase.Derivative 0) ?(solver = Structured.auto)
    ?(rescue = true) () =
  {
    n1;
    theta = 0.5;
    phase;
    differentiation = `Spectral;
    newton = { Nonlin.Newton.default_options with max_iterations = 30; residual_tol = 1e-9 };
    solver;
    rescue;
  }

(* A step's Newton iteration failed: the march retries at a smaller
   step (see [run_march]). *)
exception Newton_failed

exception Preempted of { t2 : float }

let () =
  Printexc.register_printer (function
    | Preempted { t2 } ->
      Some (Printf.sprintf "Wampde.Envelope.Preempted: run yielded at t2 = %.6g" t2)
    | _ -> None)

type result = {
  t2 : Vec.t;
  omega : Vec.t;
  slices : Vec.t array array;
  newton_iterations : int;
  options : options;
}

let semidisc dae options =
  let d =
    match options.differentiation with
    | `Spectral -> Fourier.Series.diff_matrix options.n1
    | `Fd4 -> Fourier.Series.diff_matrix_fd ~order:4 options.n1
  in
  let row = Dae.Phase.row options.phase ~n1:options.n1 ~n:dae.Dae.dim ~d in
  Dae.Semidisc.make dae ~d ~omega:(Dae.Semidisc.Unknown row) ~forcing:None

(* A point of the march: the grid, omega, and there g (the theta
   step's explicit part) and the flat charges Q, which a theta step
   from it needs.  A step hands back its accepted point with g and Q
   from its last residual pass (see [step]); only the march's start
   evaluates them afresh. *)
type point = { states : Vec.t array; omega : float; g : Vec.t; q : Vec.t }

let start_point sd ~t2 states omega =
  {
    states;
    omega;
    g = Dae.Semidisc.g sd ~t2 (Dae.Semidisc.pack sd states omega);
    q = Dae.Semidisc.charges sd ~t2 states;
  }

(* Preallocated per-run Newton vectors, reused across iterations and
   steps instead of re-allocating residuals and iterates, and the GMRES
   workspace and preconditioner buffers of the Krylov path (built on
   first use, so dense runs never pay for them). *)
type scratch = {
  sc_r : Vec.t;  (* accepted residual, Dae.Semidisc.size *)
  sc_rt : Vec.t;  (* trial residual *)
  sc_y : Vec.t;  (* current iterate *)
  sc_trial : Vec.t;  (* trial iterate *)
  sc_guess : Vec.t;  (* Newton's start, see [extrapolate_into] *)
  sc_dy : Vec.t;  (* dense chord direction *)
  sc_gmres : Gmres.workspace Lazy.t;
  sc_precond : Dae.Semidisc.precond;  (* the Krylov preconditioner's buffers *)
}

let gmres_restart = 60
let gmres_max_iter = 240

let make_scratch ~size =
  {
    sc_r = Array.make size 0.;
    sc_rt = Array.make size 0.;
    sc_y = Array.make size 0.;
    sc_trial = Array.make size 0.;
    sc_guess = Array.make size 0.;
    sc_dy = Array.make size 0.;
    sc_gmres = lazy (Gmres.workspace ~n:size ~restart:gmres_restart ~max_iter:gmres_max_iter ());
    sc_precond = Dae.Semidisc.precond ();
  }

(* Newton's start for a theta step to [t]: the Lagrange polynomial
   through the newest (up to) three accepted points ([ts], [grids],
   [omegas], newest first) evaluated at [t], packed into [dst] as
   [Dae.Semidisc.pack] lays it out.  This is the predictor of the DAE
   integrators (DASSL's, for one): the corrector then starts within the
   step's truncation error of its answer instead of a whole step's
   change away.  One point gives that point itself, bit for bit. *)
let extrapolate_into dst ~t ~ts ~grids ~omegas =
  let ts = List.filteri (fun i _ -> i < 3) ts in
  List.iteri
    (fun i ti ->
      (* point i's Lagrange basis polynomial at [t] *)
      let w = ref 1. in
      List.iteri (fun j tj -> if j <> i then w := !w *. (t -. tj) /. (ti -. tj)) ts;
      let w = !w in
      let add k v = dst.(k) <- (if i = 0 then w *. v else dst.(k) +. (w *. v)) in
      let grid = List.nth grids i in
      Array.iteri (fun j s -> Array.iteri (fun c v -> add ((j * Array.length s) + c) v) s) grid;
      (* the omega slot, when [dst] has one *)
      let nd = Array.length grid * Array.length grid.(0) in
      if Array.length dst > nd then add nd (List.nth omegas i))
    ts

(* Jacobian cache for the chord (stale-Jacobian) Newton iteration on
   the dense path: the collocation Jacobian varies slowly along t2, so
   one factorization typically serves several slow steps.  Refreshed
   automatically when the iteration stops contracting.  The Krylov
   path instead rebuilds its cheap structured operator every iteration
   (true Newton-Krylov).  The cached factorization lives in [jac] and
   [perm], refilled and factored in place at every refresh; [jac] is
   built on first use, so Krylov runs never pay for it.  The
   trust-region rescue's models refill [rescue_jac], also built on
   first use: a rescue leaves the chord's factorization cached. *)
type krylov_op = { klin : Dae.Semidisc.lin; m_inv : Vec.t -> Vec.t -> unit }

type jac_cache = {
  mutable lu : Lu.t option;
  jac : Mat.t Lazy.t;
  perm : int array;
  rescue_jac : Mat.t Lazy.t;
}

let new_cache ~size =
  {
    lu = None;
    jac = lazy (Mat.zeros size size);
    perm = Array.make size 0;
    rescue_jac = lazy (Mat.zeros size size);
  }

(* The chord refactors at the new iterate once a stale Jacobian
   contracts the residual by less than this factor per iteration.  On
   the serve batch's fixed warm-up march (VCO-A, n1 = 15, 400 steps), a
   sweep over 0.7 (no refresh before the acceptance bound), 0.3, 0.15
   and 0.05 traded Newton iterations for refactors: 4,522/26,
   2,614/65, 2,007/119, 1,321/262.  Below 0.7 the batch's wall time
   did not separate within noise (EXPERIMENTS.md); 0.15 keeps the
   iterations low without 0.05's doubled refactor count, which grows
   as n^3 with the step system. *)
let refresh_rate = 0.15

(* One theta step of size h2 from the point [p] to t2_new, Newton
   started from the packed [guess]; [p.omega] is the fixed frequency
   when [sd] has no omega slot.  Returns the new point and the Newton
   iterations.  The chord iteration stops right after the residual
   pass at the iterate it accepts, so g and Q there come from that
   pass; the trust-region rescue evaluates them once at its answer. *)
let step sd ~options ~cache ~scratch ~t2_new ~h2 ~(p : point) ~guess =
  Obs.Span.span
    ~attrs:[ ("t2", Obs.Span.Float t2_new); ("h2", Obs.Span.Float h2) ]
    "envelope.step"
  @@ fun () ->
  (* the inner (chord Newton) layer: leaf counters bumped from here —
     lu.factor, gmres.iterations — are billed to the envelope's Newton *)
  Obs.Scope.with_scope "envelope.newton" @@ fun () ->
  let theta = options.theta in
  let size = Dae.Semidisc.size sd in
  let omega_of y = Dae.Semidisc.omega_at sd y ~off:0 in
  let sys = Dae.Semidisc.step sd ~t2:t2_new ~h:h2 ~theta ~q0:p.q ~g0:p.g in
  let point_at y =
    let g, q = Dae.Semidisc.step_point sys in
    { states = Dae.Semidisc.unpack sd y ~off:0; omega = omega_of y; g; q }
  in
  let residual_into y dst =
    Dae.Semidisc.step_residual_into sys y dst;
    if Fault.armed () then begin
      Fault.maybe_stall ();
      if Fault.fire Fault.Nan_residual then dst.(0) <- Float.nan
    end
  in
  let tol = options.newton.Nonlin.Newton.residual_tol in
  let max_iterations = Int.max 40 options.newton.Nonlin.Newton.max_iterations in
  let iters = ref 0 in
  let refresh y =
    Obs.Metrics.incr c_jac_refresh;
    let lin = Dae.Semidisc.step_linearize sys y in
    let jac = Lazy.force cache.jac in
    (* refilling [jac] overwrites the cached factorization: none is
       cached again until the new one succeeds *)
    cache.lu <- None;
    Dae.Semidisc.dense_into lin jac;
    let lu = Lu.factor_into jac ~perm:cache.perm in
    cache.lu <- Some lu;
    lu
  in
  let chord_solve lu r =
    Lu.solve_into lu r scratch.sc_dy;
    scratch.sc_dy
  in
  let use_krylov = Structured.use_krylov options.solver ~dim:size in
  (* Build the matrix-free operator and its DFT-diagonalized
     averaged-block preconditioner at [y] (the Krylov analogue of
     [refresh]), bordered by the phase row when omega is unknown, the
     preconditioner into the buffers [scratch] keeps for the run.  The
     operator's blocks are evaluated fresh from [y], so it stays valid
     while [scratch]'s vectors mutate.  Returns [None] if the
     preconditioner degenerates. *)
  let refresh_krylov y =
    let lin = Dae.Semidisc.step_linearize sys y in
    match Dae.Semidisc.m_inv scratch.sc_precond [| lin |] with
    | exception (Cx.Clu.Singular _ | Structured.Bordered_singular _ | Failure _) -> None
    | m_inv -> Some { klin = lin; m_inv }
  in
  (* GMRES solve against a (possibly stale) cached operator.  The inner
     tolerance is the inexact-Newton forcing term: the chord iteration
     only needs a direction accurate to well below its own contraction
     rate, not to machine precision. *)
  let krylov_solve kc r =
    let res =
      Gmres.solve
        ~matvec:(Dae.Semidisc.apply_into kc.klin)
        ~m_inv:kc.m_inv ~ws:(Lazy.force scratch.sc_gmres) ~restart:gmres_restart
        ~max_iter:gmres_max_iter ~tol:1e-6 r
    in
    if res.Gmres.converged then Some res.Gmres.x else None
  in
  let y = ref scratch.sc_y and trial = ref scratch.sc_trial in
  let r = ref scratch.sc_r and rt = ref scratch.sc_rt in
  Array.blit guess 0 !y 0 size;
  residual_into !y !r;
  let rnorm = ref (Vec.norm_inf !r) in
  let r0 = !rnorm in
  let newton_done ~converged =
    if Obs.Events.active () then
      Obs.Events.emit
        (Obs.Events.Newton_done
           { solver = "envelope.chord"; iterations = !iters; residual = !rnorm; converged })
  in
  let fail () =
    newton_done ~converged:false;
    raise Newton_failed
  in
  (* the step fails: the chord iteration lost, and so did the rescue
     when there is one; a rescued step is no reject *)
  let reject () =
    Obs.Metrics.incr c_env_rejects;
    if Obs.Events.active () then
      Obs.Events.emit (Obs.Events.Step_reject { t = t2_new; h = h2; reason = "newton" });
    raise Newton_failed
  in
  (* a start that already meets [tol] takes its one iteration (see
     below) as a full Newton step: a chord step on a stale Jacobian
     contracts too little to stop the extrapolation amplifying the
     previous steps' Newton error into a step-to-step zig-zag *)
  if r0 <= tol then cache.lu <- None;
  let fresh = ref false in
  let accept () =
    let ty = !y and tr = !r in
    y := !trial;
    trial := ty;
    r := !rt;
    rt := tr
  in
  let run_chord () =
  (try
     (* a NaN/Inf initial residual would slip through [!rnorm > tol]
        (NaN compares false) and be returned as spuriously converged *)
     if not (Float.is_finite !rnorm) then fail ();
     (* at least one iteration, even from a start that already meets
        [tol]: an extrapolated start accepted as it stands would make
        the step an explicit extrapolation, and the step-doubling
        error estimate would compare the predictor with itself *)
     while !rnorm > tol || !iters = 0 do
       if !iters >= max_iterations then fail ();
       incr iters;
       Obs.Metrics.incr c_newton_iters;
       if Fault.armed () && Fault.fire Fault.Linear_solve then raise (Lu.Singular 0);
       let dense_fallback () =
         Structured.fallback_to_dense ();
         (chord_solve (refresh !y) !r, true)
       in
       let dy, is_fresh =
         if use_krylov then begin
           (* true Newton-Krylov: rebuild the (cheap) operator and
              preconditioner at the current iterate every time, so the
              outer iteration keeps Newton's quadratic convergence.
              Chord-style operator reuse is a bad trade here -- it buys
              back a cheap build but pays extra GMRES solves. *)
           match refresh_krylov !y with
           | Some kc -> (
             match krylov_solve kc !r with
             | Some dy -> (dy, true)
             | None -> dense_fallback ())
           | None -> dense_fallback ()
         end
         else
           match cache.lu with
           | Some lu -> (chord_solve lu !r, !fresh)
           | None -> (chord_solve (refresh !y) !r, true)
       in
       fresh := is_fresh;
       if Fault.armed () && Fault.fire Fault.Newton_diverge then Vec.scale_inplace 1e8 dy;
       let yv = !y and tv = !trial in
       for i = 0 to size - 1 do
         tv.(i) <- yv.(i) -. dy.(i)
       done;
       residual_into tv !rt;
       let rtnorm = Vec.norm_inf !rt in
       if Float.is_finite rtnorm && (rtnorm <= tol || rtnorm < 0.7 *. !rnorm) then begin
         accept ();
         (* a stale Jacobian that contracts slower than [refresh_rate]
            costs more iterations than a factorization: the next
            iteration refactors at the new iterate *)
         if (not !fresh) && rtnorm > tol && rtnorm > refresh_rate *. !rnorm then cache.lu <- None;
         rnorm := rtnorm;
         fresh := false
       end
       else if not !fresh then begin
         (* stale Jacobian stopped contracting: refresh and retry *)
         ignore (refresh !y);
         fresh := true
       end
       else begin
         (* fresh Jacobian and still no contraction: damped line search *)
         let rec backtrack lambda =
           if lambda < 1e-4 then fail ()
           else begin
             let yv = !y and tv = !trial in
             for i = 0 to size - 1 do
               tv.(i) <- yv.(i) -. (lambda *. dy.(i))
             done;
             residual_into tv !rt;
             let nl = Vec.norm_inf !rt in
             if Float.is_finite nl && nl < !rnorm then begin
               accept ();
               rnorm := nl
             end
             else backtrack (lambda /. 2.)
           end
         in
         backtrack 0.5;
         (* the next iteration refactors at the new point *)
         cache.lu <- None;
         fresh := false
       end
     done
   with Lu.Singular _ -> fail ());
  newton_done ~converged:true;
  (* estimated contraction rate from the initial and final residuals *)
  if !iters >= 1 then begin
    let rate =
      if r0 > 0. && !rnorm >= 0. then (!rnorm /. r0) ** (1. /. float_of_int !iters) else nan
    in
    Obs.Health.note_newton ~t:t2_new ~iterations:!iters ~rate ()
  end;
  (point_at !y, !iters)
  in
  match run_chord () with
  | result -> result
  | exception Newton_failed when not options.rescue -> reject ()
  | exception Newton_failed ->
    (* The chord iteration is lost.  Cold-start trust region on the
       same step system (dense Jacobian) before surfacing the
       failure to the step controller. *)
    let residual yv =
      let dst = Array.make size 0. in
      residual_into yv dst;
      dst
    in
    let jacobian y =
      let jac = Lazy.force cache.rescue_jac in
      Dae.Semidisc.dense_into (Dae.Semidisc.step_linearize sys y) jac;
      jac
    in
    let report =
      Nonlin.Trust_region.solve
        ~options:{ options.newton with Nonlin.Newton.residual_tol = tol }
        ~label:"envelope.rescue.trust_region" ~jacobian ~residual
        (Dae.Semidisc.pack sd p.states p.omega)
    in
    if not report.Nonlin.Newton.converged then reject ();
    Obs.Metrics.incr c_rescues;
    let x = report.Nonlin.Newton.x in
    (* one residual pass at the answer, for its g and Q *)
    Dae.Semidisc.step_residual_into sys x scratch.sc_rt;
    (point_at x, !iters + report.Nonlin.Newton.iterations)

(* The amplitude floor of [check_oscillating]: [Oscillator.polish]'s
   rule, a t1 swing below this fraction of the start's is a quench. *)
let quench_fraction = 1e-3

(* half the peak-to-peak excursion of [component] over the t1 grid
   [states] *)
let swing states component =
  let hi = ref neg_infinity and lo = ref infinity in
  for j = 0 to Array.length states - 1 do
    hi := Float.max !hi states.(j).(component);
    lo := Float.min !lo states.(j).(component)
  done;
  (!hi -. !lo) /. 2.

let amplitude options states =
  match options.phase with
  | Dae.Phase.Derivative c -> swing states c
  | Dae.Phase.Fourier { component; _ } -> swing states component

let check_oscillating ~fn options ~reference ~t2 ~omega states =
  (* omega <= 0 is a time-reversed or collapsed orbit, not an
     oscillation; NaN is left to the solver's own checks *)
  if omega <= 0. then
    raise
      (Steady.Oscillator.Nonphysical
         (Printf.sprintf "%s: omega = %g at t2 = %g, not positive" fn omega t2));
  let a = amplitude options states in
  if a < quench_fraction *. reference then
    raise
      (Steady.Oscillator.Nonphysical
         (Printf.sprintf "%s: quenched at t2 = %g (amplitude %.3g, %.3g at the start)" fn t2 a
            reference))

let check_init options (init : Steady.Oscillator.orbit) =
  if Array.length init.Steady.Oscillator.grid <> options.n1 then
    invalid_arg "Wampde.Envelope: init grid size differs from options.n1";
  if options.n1 mod 2 = 0 then invalid_arg "Wampde.Envelope: n1 must be odd"

(* The phase condition only pins the solution within its own constraint
   manifold; starting OFF the manifold can make Newton land on a valid
   but non-compact solution branch (the paper's footnote 3: choosing a
   slowly-varying phase condition "is the key to compact numerical
   representation").  For the Fourier condition we therefore rotate the
   initial orbit in t1 so that Im Xhat^k_l = 0 holds exactly at t2 = 0;
   a t1-rotation maps solutions to solutions with unchanged omega. *)
let align_init options (init : Steady.Oscillator.orbit) =
  match options.phase with
  | Dae.Phase.Derivative _ -> init
  | Dae.Phase.Fourier { component; harmonic } ->
    let n1 = options.n1 in
    let grid = init.Steady.Oscillator.grid in
    let n = Array.length grid.(0) in
    let samples = Array.map (fun s -> s.(component)) grid in
    let coeffs = Fourier.Series.coeffs samples in
    let x_l = Fourier.Series.harmonic coeffs harmonic in
    (* sampling at t1 + delta multiplies X_l by e^{2 pi j l delta}; choose
       delta so the rotated coefficient becomes real *)
    let delta = -.Complex.arg x_l /. (2. *. Float.pi *. float_of_int harmonic) in
    if Float.abs delta < 1e-12 then init
    else begin
      let rotated =
        Array.init n1 (fun j ->
            Vec.init n (fun v ->
                let var_samples = Array.map (fun s -> s.(v)) grid in
                Fourier.Series.interp var_samples ~period:1.
                  ((float_of_int j /. float_of_int n1) +. delta)))
      in
      { init with Steady.Oscillator.grid = rotated }
    end

(* t1-grid spectral health of an accepted macro step.  Gated on the
   global telemetry flag at the call site: the per-component real DFTs
   are cheap relative to a Newton solve but not free. *)
let note_spectral_health ~t states =
  if Obs.enabled () then begin
    let tol = (Obs.Health.thresholds ()).Obs.Health.spectral_tol in
    let r = Fourier.Series.grid_resolution ~tol states in
    Obs.Health.note_spectrum ~t ~tail:r.Fourier.Series.tail ~needed:r.Fourier.Series.needed
      ~available:r.Fourier.Series.available ()
  end

(* ---------- the t2 march, with checkpoint/restart ---------- *)

let c_escalations = Obs.Metrics.counter "controller.escalations"

(* the theta method's order: trapezoidal below theta = 1, backward Euler
   at 1 *)
let theta_order options = if options.theta < 1. then 2 else 1

let checkpoint_sections ~options ~dim ~t2_end ~ctrl ~escalated ~t2 ~omega ~states ~t2s ~omegas
    ~slices =
  [
    ("kind", Checkpoint.Text "envelope");
    ("n1", Checkpoint.Scalar (float_of_int options.n1));
    ("dim", Checkpoint.Scalar (float_of_int dim));
    ("theta", Checkpoint.Scalar options.theta);
    ("t2_end", Checkpoint.Scalar t2_end);
    ("t2", Checkpoint.Scalar t2);
    ("omega", Checkpoint.Scalar omega);
    ("escalated", Checkpoint.Scalar (if escalated then 1. else 0.));
    ( "controller",
      Checkpoint.Vector (Step_control.snapshot_to_floats (Step_control.snapshot ctrl)) );
    ("states", Checkpoint.Matrix (Array.map Array.copy states));
    ("hist_t2", Checkpoint.Vector (Array.of_list (List.rev t2s)));
    ("hist_omega", Checkpoint.Vector (Array.of_list (List.rev omegas)));
    ( "hist_slices",
      Checkpoint.Tensor (Array.of_list (List.rev_map (Array.map Array.copy) slices)) );
  ]

let check_span ~t2_end ~h2 =
  let positive x = Float.is_finite x && x > 0. in
  if not (positive t2_end) then invalid_arg "Wampde.Envelope: t2_end must be positive and finite";
  if not (positive h2) then invalid_arg "Wampde.Envelope: h2 must be positive and finite"

(* The one t2 march from (states, omega) at t2 = 0 (or a [resume]
   checkpoint) to [t2_end], driven by [ctrl].  Only the attempt
   differs: [richardson = false] takes one theta step of the proposed
   size and books it with [record_accept] (the fixed march); [true]
   takes it once whole and twice halved and lets [decide] judge the
   Richardson difference.  Any step failure is booked with
   [failure_retry] (halving the step, or raising [Underflow]), and
   repeated failures on the Krylov path finish the run on dense LU. *)
let run_march sd ~options ~ctrl ~richardson ?checkpoint ?resume ?on_accept ?preempt ~t2_end
    ~states:states_init ~omega:omega_init () =
  Obs.Scope.with_scope "envelope.outer" @@ fun () ->
  let n1 = options.n1 and n = Array.length states_init.(0) in
  let t2s = ref [ 0. ] and omegas = ref [ omega_init ] in
  let slices = ref [ Array.map Array.copy states_init ] in
  let t2 = ref 0. and states = ref states_init and omega = ref omega_init in
  let escalated = ref false in
  (match resume with
   | None -> ()
   | Some path ->
     let ck = Checkpoint.load ~path in
     let expect name v =
       let got = Checkpoint.scalar ck name in
       if got <> v then
         raise
           (Checkpoint.Corrupt
              (Printf.sprintf "checkpoint %s mismatch: file has %g, run has %g" name got v))
     in
     if Checkpoint.text ck "kind" <> "envelope" then
       raise (Checkpoint.Corrupt "not an envelope checkpoint");
     expect "n1" (float_of_int n1);
     expect "dim" (float_of_int n);
     expect "theta" options.theta;
     t2 := Checkpoint.scalar ck "t2";
     omega := Checkpoint.scalar ck "omega";
     states := Array.map Array.copy (Checkpoint.matrix ck "states");
     escalated := Checkpoint.scalar ck "escalated" <> 0.;
     Step_control.restore ctrl
       (Step_control.snapshot_of_floats (Checkpoint.vector ck "controller"));
     t2s := List.rev (Array.to_list (Checkpoint.vector ck "hist_t2"));
     omegas := List.rev (Array.to_list (Checkpoint.vector ck "hist_omega"));
     slices := List.rev_map (Array.map Array.copy) (Array.to_list (Checkpoint.tensor ck "hist_slices")));
  let control = Step_control.options ctrl in
  let denom = Step_control.richardson_denom ~order:(theta_order options) in
  let size = Dae.Semidisc.size sd in
  (* the packed unknowns end in an omega slot when omega is unknown *)
  let omega_unknown = size > n1 * n in
  let reference = if omega_unknown then amplitude options states_init else 0. in
  let cur = ref (start_point sd ~t2:!t2 !states !omega) in
  let cache = new_cache ~size in
  let scratch = make_scratch ~size in
  let iter_count = ref 0 in
  let since_ckpt = ref 0 in
  (* the weighted RMS Richardson error over every unknown *)
  let richardson_error ~full ~om_full ~fine ~om_fine =
    let y = Dae.Semidisc.pack sd fine om_fine in
    let err = Array.map2 (fun f c -> (f -. c) /. denom) y (Dae.Semidisc.pack sd full om_full) in
    Step_control.error_norm control ~y ~err
  in
  (* one attempt from the accepted point: the new grid, omega, Newton
     iterations and, with [richardson], the error estimate.  Each theta
     step starts Newton from the extrapolated history; the second half
     step's history begins with the midpoint. *)
  let attempt ~options ~h =
    let t2_new = !t2 +. h in
    let take ~t2_new ~h ~ts ~grids ~omegas p =
      extrapolate_into scratch.sc_guess ~t:t2_new ~ts ~grids ~omegas;
      step sd ~options ~cache ~scratch ~t2_new ~h2:h ~p ~guess:scratch.sc_guess
    in
    let full, it1 = take ~t2_new ~h ~ts:!t2s ~grids:!slices ~omegas:!omegas !cur in
    if not richardson then (full, it1, None)
    else begin
      let h_half = h /. 2. and t2_mid = !t2 +. (h /. 2.) in
      (* the half steps solve a different system from the whole step's:
         the first factors its own Jacobian at [h / 2] rather than reuse
         the one at [h], and the second reuses that *)
      cache.lu <- None;
      let mid, it2 = take ~t2_new:t2_mid ~h:h_half ~ts:!t2s ~grids:!slices ~omegas:!omegas !cur in
      let fine, it3 =
        take ~t2_new ~h:h_half ~ts:(t2_mid :: !t2s) ~grids:(mid.states :: !slices)
          ~omegas:(mid.omega :: !omegas) mid
      in
      ( fine,
        it1 + it2 + it3,
        Some
          (richardson_error ~full:full.states ~om_full:full.omega ~fine:fine.states
             ~om_fine:fine.omega) )
    end
  in
  let save_checkpoint path =
    Checkpoint.save ~path
      (checkpoint_sections ~options ~dim:n ~t2_end ~ctrl ~escalated:!escalated ~t2:!t2
         ~omega:!cur.omega ~states:!cur.states ~t2s:!t2s ~omegas:!omegas ~slices:!slices)
  in
  while !t2 < t2_end -. (1e-9 *. t2_end) do
    let h = Step_control.propose ctrl ~remaining:(t2_end -. !t2) in
    let opts_now = if !escalated then { options with solver = Structured.Dense } else options in
    (* the controlled march starts every macro attempt with a cold
       Jacobian cache so a resumed run retraces the original
       bit-for-bit (a warm chord cache from the previous step is the
       one piece of state a checkpoint cannot carry); the fixed march
       keeps it warm across steps *)
    if richardson then cache.lu <- None;
    match attempt ~options:opts_now ~h with
    | exception ((Newton_failed | Lu.Singular _ | Failure _) as exn) ->
      let reason =
        match exn with
        | Newton_failed -> "newton"
        | Lu.Singular _ -> "singular factorization"
        | _ -> "solver failure"
      in
      ignore (Step_control.failure_retry ctrl ~t:!t2 ~h_used:h ~reason);
      if
        Step_control.should_escalate ctrl && (not !escalated)
        && Structured.use_krylov options.solver ~dim:size
      then begin
        (* repeated Newton stalls on the Krylov path: the inexact
           directions, not the step size, may be the problem — finish
           the run on dense LU *)
        escalated := true;
        Obs.Metrics.incr c_escalations;
        Obs.Health.note_escalation ~t:!t2 ()
      end
    | next, iters, err ->
      iter_count := !iter_count + iters;
      let accepted =
        match err with
        | None ->
          Step_control.record_accept ctrl ~t:!t2 ~h_used:h;
          true
        | Some err -> (
          match Step_control.decide ctrl ~t:!t2 ~h_used:h ~err with
          | Step_control.Accept _ -> true
          | Step_control.Reject _ ->
            Obs.Metrics.incr c_env_rejects;
            false)
      in
      if accepted then begin
        t2 := !t2 +. h;
        cur := next;
        let states' = next.states and omega' = next.omega in
        if omega_unknown then
          check_oscillating ~fn:"Envelope" options ~reference ~t2:!t2 ~omega:omega' states';
        Obs.Metrics.incr c_env_steps;
        (* omega(t2) right after the accept that reached t2: the stream's
           progress record and the report's history pair them *)
        if Obs.Events.active () then
          Obs.Events.emit (Obs.Events.Phase_condition { omega = omega'; t2 = !t2 });
        note_spectral_health ~t:!t2 states';
        t2s := !t2 :: !t2s;
        omegas := omega' :: !omegas;
        slices := Array.map Array.copy states' :: !slices;
        (match checkpoint with
         | None -> ()
         | Some (path, every) ->
           incr since_ckpt;
           if !since_ckpt >= every then begin
             since_ckpt := 0;
             save_checkpoint path
           end);
        (match on_accept with Some f -> f ~t2:!t2 ~omega:omega' | None -> ());
        (* cooperative preemption: yield only on an accepted-step
           boundary, after a forced checkpoint write, so the caller
           can resume bit-compatibly with the uninterrupted run *)
        match preempt with
        | Some should_yield when should_yield ~t2:!t2 && !t2 < t2_end -. (1e-9 *. t2_end) ->
          (match checkpoint with
           | Some (path, _) ->
             since_ckpt := 0;
             save_checkpoint path
           | None -> ());
          raise (Preempted { t2 = !t2 })
        | _ -> ()
      end
  done;
  {
    t2 = Array.of_list (List.rev !t2s);
    omega = Array.of_list (List.rev !omegas);
    slices = Array.of_list (List.rev !slices);
    newton_iterations = !iter_count;
    options;
  }

let march sd ~options ~t2_end ~h2 ~states ~omega =
  check_span ~t2_end ~h2;
  if Array.length states <> options.n1 then
    invalid_arg "Wampde.Envelope.march: states length differs from options.n1";
  (* the march targets the fixed step [h2]; the controller only acts on
     step failures, halving the step and growing it back toward [h2] *)
  let ctrl =
    Step_control.create
      (Step_control.default_options ~h_min:(1e-9 *. h2) ~h_max:h2 ())
      ~h_init:h2
  in
  run_march sd ~options ~ctrl ~richardson:false ~t2_end ~states ~omega ()

let span_attrs dae options ~t2_end =
  [
    ("n1", Obs.Span.Int options.n1);
    ("dim", Obs.Span.Int dae.Dae.dim);
    ("t2", Obs.Span.Float t2_end);
  ]

let simulate dae ~options ~t2_end ~h2 ~init =
  check_init options init;
  Obs.Span.span ~attrs:(span_attrs dae options ~t2_end) "envelope.simulate" @@ fun () ->
  let init = align_init options init in
  march (semidisc dae options) ~options ~t2_end ~h2 ~states:init.Steady.Oscillator.grid
    ~omega:init.Steady.Oscillator.omega

let simulate_controlled dae ~options ~control ?h2_init ?checkpoint ?resume ?on_accept ?preempt
    ~t2_end ~init () =
  check_init options init;
  let h2_init = match h2_init with Some h -> h | None -> t2_end /. 50. in
  check_span ~t2_end ~h2:h2_init;
  Obs.Span.span ~attrs:(span_attrs dae options ~t2_end) "envelope.simulate_controlled"
  @@ fun () ->
  let init = align_init options init in
  let control =
    if Float.is_finite control.Step_control.h_max then control
    else { control with Step_control.h_max = t2_end /. 2. }
  in
  let ctrl = Step_control.create ~order:(theta_order options) control ~h_init:h2_init in
  run_march (semidisc dae options) ~options ~ctrl ~richardson:true ?checkpoint ?resume
    ?on_accept ?preempt ~t2_end ~states:init.Steady.Oscillator.grid
    ~omega:init.Steady.Oscillator.omega ()

(* ---------- post-processing ---------- *)

let warping result =
  Sigproc.Warp.make ~t2:result.t2 ~omega:result.omega ~slices:result.slices ()

let slice result ~index ~component =
  Array.map (fun state -> state.(component)) result.slices.(index)

let eval_waveform result ~component t = Sigproc.Warp.eval (warping result) ~component t

let waveform_samples result ~component ~per_cycle =
  let w = warping result in
  let t_end = result.t2.(Array.length result.t2 - 1) in
  let cycles = Sigproc.Warp.phi w t_end in
  let total = Int.max 2 (int_of_float (Float.ceil (cycles *. float_of_int per_cycle))) in
  let times = Vec.linspace 0. t_end total in
  (times, Vec.map (Sigproc.Warp.eval w ~component) times)

let amplitude_track result ~component = Array.map (fun s -> swing s component) result.slices
