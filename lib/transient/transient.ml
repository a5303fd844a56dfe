open Linalg
module Obs = Wampde_obs

type method_ = Backward_euler | Trapezoidal

type trajectory = { times : float array; states : Vec.t array }

type step_failure = {
  t : float;
  h : float;
  residual_norm : float;
  iterations : int;
  reason : Nonlin.Newton.failure_reason option;
}

exception Step_failure of step_failure

let reason_string = function
  | Some Nonlin.Newton.Singular_jacobian -> "singular Jacobian"
  | Some Nonlin.Newton.Line_search_failed -> "line search failed"
  | Some Nonlin.Newton.Iteration_limit -> "iteration limit"
  | Some Nonlin.Newton.Non_finite_residual -> "non-finite residual"
  | None -> "unknown"

let () =
  Printexc.register_printer (function
    | Step_failure { t; h; residual_norm; iterations; reason } ->
      Some
        (Printf.sprintf
           "Transient.Step_failure: Newton failed at t = %.6g (h = %.3g, residual %.3e after %d iterations: %s)"
           t h residual_norm iterations (reason_string reason))
    | _ -> None)

let c_steps = Obs.Metrics.counter "transient.steps"
let c_rejects = Obs.Metrics.counter "transient.rejects"
let c_rescues = Obs.Metrics.counter "transient.rescues"

let step_failed ~t ~h (report : Nonlin.Newton.report) =
  let failure =
    {
      t;
      h;
      residual_norm = report.Nonlin.Newton.residual_norm;
      iterations = report.Nonlin.Newton.iterations;
      reason = report.Nonlin.Newton.reason;
    }
  in
  Obs.Metrics.incr c_rejects;
  if Obs.Events.active () then
    Obs.Events.emit (Obs.Events.Step_reject { t; h; reason = reason_string failure.reason });
  raise (Step_failure failure)

let newton_options =
  { Nonlin.Newton.default_options with max_iterations = 40; residual_tol = 1e-10 }

(* The buffers and closures of one integration's implicit steps: the
   circuit evaluations the residual and Jacobian read, q and f at the
   step's start ([q0], [f0]), at the Newton iterate ([q], [f]), and C
   and G there.  The step being solved ends at [t1], is [h] long and
   has weight [theta]; [fresh] says that [q] and [f] hold the last
   residual pass at the iterate the last solve returned, the next
   step's start.  [jac] is the Jacobian that Newton's in-place LU
   refactors every iteration and the rescue's trust-region models
   refill.  The closures read the step from the record; [newton] is
   the damped solve in its own workspace, with the pivot order of
   [jac], its optional arguments wrapped once. *)
type work = {
  dae : Dae.t;
  q0 : Vec.t;
  f0 : Vec.t;
  q : Vec.t;
  f : Vec.t;
  c : Mat.t;
  g : Mat.t;
  jac : Mat.t;
  mutable t1 : float;
  mutable h : float;
  mutable theta : float;
  mutable fresh : bool;
  residual_into : Vec.t -> Vec.t -> unit;
  jacobian_into : Vec.t -> Mat.t -> unit;
  newton : Vec.t -> Nonlin.Newton.report;
}

let label = "transient.theta"

(* theta step, residual scaled by h (i.e. q(y) - q0 + h (theta f1 +
   (1-theta) f0)) so its magnitude tracks q, not q/h: keeps the Newton
   tolerance meaningful for arbitrarily small steps. *)
let theta_residual w y dst =
  let q0 = w.q0 and f0 = w.f0 and q = w.q and f = w.f and h = w.h and theta = w.theta in
  w.dae.Dae.eval_into ~t:w.t1 y ~q ~f ~c:[||] ~g:[||];
  for i = 0 to w.dae.Dae.dim - 1 do
    dst.(i) <-
      q.(i) -. q0.(i)
      +. (h *. theta *. f.(i))
      +. (if theta < 1. then h *. (1. -. theta) *. f0.(i) else 0.)
  done

let theta_jacobian w y jac =
  let c = w.c and g = w.g and h = w.h and theta = w.theta in
  w.dae.Dae.eval_into ~t:w.t1 y ~q:[||] ~f:[||] ~c ~g;
  for i = 0 to w.dae.Dae.dim - 1 do
    for j = 0 to w.dae.Dae.dim - 1 do
      jac.(i).(j) <- c.(i).(j) +. (h *. theta *. g.(i).(j))
    done
  done

let work dae =
  let dim = dae.Dae.dim in
  let vec () = Array.make dim 0. in
  let ws = Nonlin.Newton.workspace dim and perm = Array.make dim 0 in
  let options = Some newton_options and some_label = Some label in
  let rec w =
    {
      dae;
      q0 = vec ();
      f0 = vec ();
      q = vec ();
      f = vec ();
      c = Mat.zeros dim dim;
      g = Mat.zeros dim dim;
      jac = Mat.zeros dim dim;
      t1 = 0.;
      h = 0.;
      theta = 0.;
      fresh = false;
      residual_into = (fun y dst -> theta_residual w y dst);
      jacobian_into = (fun y jac -> theta_jacobian w y jac);
      newton;
    }
  and linear_solve_into y r dy =
    w.jacobian_into y w.jac;
    Lu.solve_into (Lu.factor_into w.jac ~perm) r dy
  and newton x =
    Nonlin.Newton.solve_into ?options ?label:some_label ~ws ~linear_solve_into
      ~residual_into:w.residual_into x
  in
  w

(* Fixed-step implicit solves cannot shrink h on a Newton failure the
   way an adaptive driver can, so they get one rescue attempt with
   the trust-region globalizer (cold-started from the same predictor)
   before the failure becomes a typed [Step_failure].  Free on the
   healthy path; absorbs transient upsets such as an injected fault or
   a merely-poor predictor.  A converged Newton solve's last residual
   pass is at the iterate it returns, so [q] and [f] carry over to the
   next step; the rescue's passes are elsewhere.  The result aliases
   [w]. *)
let solve_or_rescue w ~t x =
  let report = w.newton x in
  w.fresh <- report.Nonlin.Newton.converged;
  if report.Nonlin.Newton.converged then report.Nonlin.Newton.x
  else begin
    let dim = Array.length x in
    let residual y =
      let dst = Array.make dim 0. in
      w.residual_into y dst;
      dst
    in
    let jacobian y =
      w.jacobian_into y w.jac;
      w.jac
    in
    let rescue =
      Nonlin.Trust_region.solve ~options:newton_options ~label:(label ^ ".rescue") ~jacobian
        ~residual x
    in
    if rescue.Nonlin.Newton.converged then begin
      Obs.Metrics.incr c_rescues;
      rescue.Nonlin.Newton.x
    end
    else step_failed ~t ~h:w.h report
  end

(* One theta step from [(t, x)].  Its start's q and, for theta < 1, f
   go into [q0] and [f0]: the last solve's final residual pass when
   [w.fresh], else one evaluation. *)
let theta_into w ~theta ~t ~h x =
  w.t1 <- t +. h;
  w.h <- h;
  w.theta <- theta;
  if w.fresh then begin
    Array.blit w.q 0 w.q0 0 w.dae.Dae.dim;
    Array.blit w.f 0 w.f0 0 w.dae.Dae.dim
  end
  else w.dae.Dae.eval_into ~t x ~q:w.q0 ~f:(if theta < 1. then w.f0 else [||]) ~c:[||] ~g:[||];
  solve_or_rescue w ~t x

let theta_step dae ~theta ~t ~h x = theta_into (work dae) ~theta ~t ~h x

(* The step times from [t0]: steps of [h], the last shortened to land
   on [t1].  The count comes from running the same float arithmetic
   once, so the arrays are sized before the first step. *)
let step_times ~t0 ~t1 ~h =
  let stop = t1 -. (1e-12 *. Float.max 1. (Float.abs t1)) in
  let count = ref 0 and t = ref t0 in
  while !t < stop do
    t := !t +. Float.min h (t1 -. !t);
    incr count
  done;
  let times = Array.make (!count + 1) t0 in
  for i = 1 to !count do
    times.(i) <- times.(i - 1) +. Float.min h (t1 -. times.(i - 1))
  done;
  times

let integrate dae ~method_ ~t0 ~t1 ~h x0 =
  if h <= 0. then invalid_arg "Transient.integrate: h <= 0";
  if t1 < t0 then invalid_arg "Transient.integrate: t1 < t0";
  Obs.Span.span
    ~attrs:[ ("dim", Obs.Span.Int dae.Dae.dim); ("t1", Obs.Span.Float t1) ]
    "transient.integrate"
  @@ fun () ->
  Obs.Scope.with_scope "transient" @@ fun () ->
  let times = step_times ~t0 ~t1 ~h in
  let states = Array.make (Array.length times) (Array.copy x0) in
  let w = work dae in
  let theta = match method_ with Backward_euler -> 1. | Trapezoidal -> 0.5 in
  for i = 1 to Array.length times - 1 do
    let t = times.(i - 1) in
    let step = Float.min h (t1 -. t) in
    (* the one copy of the accepted state: the step returns a buffer
       of [w] *)
    states.(i) <- Array.copy (theta_into w ~theta ~t ~h:step states.(i - 1));
    Obs.Metrics.incr c_steps;
    if Obs.Events.active () then Obs.Events.emit (Obs.Events.Step_accept { t; h = step })
  done;
  { times; states }

let component traj i = Array.map (fun s -> s.(i)) traj.states

let interpolate traj i t =
  let n = Array.length traj.times in
  if n = 0 then invalid_arg "Transient.interpolate: empty trajectory";
  if t <= traj.times.(0) then traj.states.(0).(i)
  else if t >= traj.times.(n - 1) then traj.states.(n - 1).(i)
  else begin
    (* binary search for the bracketing interval *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if traj.times.(mid) <= t then lo := mid else hi := mid
    done;
    let ta = traj.times.(!lo) and tb = traj.times.(!hi) in
    let xa = traj.states.(!lo).(i) and xb = traj.states.(!hi).(i) in
    if tb = ta then xa else xa +. ((xb -. xa) *. (t -. ta) /. (tb -. ta))
  end

let final traj =
  let n = Array.length traj.states in
  if n = 0 then invalid_arg "Transient.final: empty trajectory";
  traj.states.(n - 1)

let steps traj = Int.max 0 (Array.length traj.times - 1)
