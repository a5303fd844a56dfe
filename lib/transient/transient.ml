open Linalg
module Obs = Wampde_obs

type method_ = Backward_euler | Trapezoidal | Bdf2 | Rk4

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

(* The buffers of one integration's implicit steps: the Newton
   workspace, the Jacobian and pivot order the in-place LU refactors
   every iteration, and the circuit evaluations the residual and
   Jacobian read: q and f at the step's start ([q0], [f0]; [q_prev] at
   the point before it for BDF2), at the Newton iterate ([q], [f]),
   and C and G there. *)
type work = {
  ws : Nonlin.Newton.workspace;
  jac : Mat.t;
  perm : int array;
  q0 : Vec.t;
  f0 : Vec.t;
  q_prev : Vec.t;
  q : Vec.t;
  f : Vec.t;
  c : Mat.t;
  g : Mat.t;
}

let work dim =
  let vec () = Array.make dim 0. in
  {
    ws = Nonlin.Newton.workspace dim;
    jac = Mat.zeros dim dim;
    perm = Array.make dim 0;
    q0 = vec ();
    f0 = vec ();
    q_prev = vec ();
    q = vec ();
    f = vec ();
    c = Mat.zeros dim dim;
    g = Mat.zeros dim dim;
  }

(* Fixed-step implicit solves cannot shrink h on a Newton failure the
   way an adaptive driver can, so they get one rescue attempt with
   the trust-region globalizer (cold-started from the same predictor)
   before the failure becomes a typed [Step_failure].  Free on the
   healthy path; absorbs transient upsets such as an injected fault or
   a merely-poor predictor.  The result aliases [w]. *)
let solve_or_rescue w ~label ~jacobian_into ~residual_into ~t ~h x =
  let linear_solve_into y r dy =
    jacobian_into y w.jac;
    Lu.solve_into (Lu.factor_into w.jac ~perm:w.perm) r dy
  in
  let report =
    Nonlin.Newton.solve_into ~options:newton_options ~label ~ws:w.ws ~linear_solve_into
      ~residual_into x
  in
  if report.Nonlin.Newton.converged then report.Nonlin.Newton.x
  else begin
    let dim = Array.length x in
    let residual y =
      let dst = Array.make dim 0. in
      residual_into y dst;
      dst
    in
    let jacobian y =
      let jac = Mat.zeros dim dim in
      jacobian_into y jac;
      jac
    in
    let rescue =
      Nonlin.Trust_region.solve ~options:newton_options ~label:(label ^ ".rescue")
        ~jacobian ~residual x
    in
    if rescue.Nonlin.Newton.converged then begin
      Obs.Metrics.incr c_rescues;
      rescue.Nonlin.Newton.x
    end
    else step_failed ~t ~h report
  end

let theta_into w dae ~theta ~t ~h x =
  let q0 = w.q0 and f0 = w.f0 and q = w.q and f = w.f and c = w.c and g = w.g in
  dae.Dae.eval_into ~t x ~q:q0 ~f:(if theta < 1. then f0 else [||]) ~c:[||] ~g:[||];
  let t1 = t +. h in
  (* residual scaled by h (i.e. q(y) - q0 + h (theta f1 + (1-theta) f0))
     so its magnitude tracks q, not q/h: keeps the Newton tolerance
     meaningful for arbitrarily small steps. *)
  let residual_into y dst =
    dae.Dae.eval_into ~t:t1 y ~q ~f ~c:[||] ~g:[||];
    for i = 0 to dae.Dae.dim - 1 do
      dst.(i) <-
        q.(i) -. q0.(i)
        +. (h *. theta *. f.(i))
        +. (if theta < 1. then h *. (1. -. theta) *. f0.(i) else 0.)
    done
  in
  let jacobian_into y jac =
    dae.Dae.eval_into ~t:t1 y ~q:[||] ~f:[||] ~c ~g;
    for i = 0 to dae.Dae.dim - 1 do
      for j = 0 to dae.Dae.dim - 1 do
        jac.(i).(j) <- c.(i).(j) +. (h *. theta *. g.(i).(j))
      done
    done
  in
  solve_or_rescue w ~label:"transient.theta" ~jacobian_into ~residual_into ~t ~h x

let theta_step dae ~theta ~t ~h x = theta_into (work dae.Dae.dim) dae ~theta ~t ~h x

(* BDF2 with the previous two accepted points (fixed step):
   (3 q(x2) - 4 q(x1) + q(x0)) / (2h) + f(t2, x2) = 0 *)
let bdf2_into w dae ~t ~h ~x_prev x =
  let q1 = w.q0 and q0 = w.q_prev and q = w.q and f = w.f and c = w.c and g = w.g in
  dae.Dae.eval_into ~t x ~q:q1 ~f:[||] ~c:[||] ~g:[||];
  dae.Dae.eval_into ~t x_prev ~q:q0 ~f:[||] ~c:[||] ~g:[||];
  let t2 = t +. h in
  let residual_into y dst =
    dae.Dae.eval_into ~t:t2 y ~q ~f ~c:[||] ~g:[||];
    for i = 0 to dae.Dae.dim - 1 do
      dst.(i) <- ((1.5 *. q.(i)) -. (2. *. q1.(i)) +. (0.5 *. q0.(i))) +. (h *. f.(i))
    done
  in
  let jacobian_into y jac =
    dae.Dae.eval_into ~t:t2 y ~q:[||] ~f:[||] ~c ~g;
    for i = 0 to dae.Dae.dim - 1 do
      for j = 0 to dae.Dae.dim - 1 do
        jac.(i).(j) <- (1.5 *. c.(i).(j)) +. (h *. g.(i).(j))
      done
    done
  in
  solve_or_rescue w ~label:"transient.bdf2" ~jacobian_into ~residual_into ~t ~h x

(* classical explicit RK4 on the semi-explicit form
   xdot = -C(x)^{-1} f(t, x); valid only when dq/dx is invertible
   everywhere along the trajectory (no purely algebraic constraints). *)
let rk4_step dae ~t ~h x =
  let deriv tt y = Dae.consistent_derivative dae ~t:tt y in
  let k1 = deriv t x in
  let k2 = deriv (t +. (h /. 2.)) (Vec.init (Array.length x) (fun i -> x.(i) +. (h /. 2. *. k1.(i)))) in
  let k3 = deriv (t +. (h /. 2.)) (Vec.init (Array.length x) (fun i -> x.(i) +. (h /. 2. *. k2.(i)))) in
  let k4 = deriv (t +. h) (Vec.init (Array.length x) (fun i -> x.(i) +. (h *. k3.(i)))) in
  Vec.init (Array.length x) (fun i ->
      x.(i) +. (h /. 6. *. (k1.(i) +. (2. *. k2.(i)) +. (2. *. k3.(i)) +. k4.(i))))

let integrate dae ~method_ ~t0 ~t1 ~h x0 =
  if h <= 0. then invalid_arg "Transient.integrate: h <= 0";
  if t1 < t0 then invalid_arg "Transient.integrate: t1 < t0";
  Obs.Span.span
    ~attrs:[ ("dim", Obs.Span.Int dae.Dae.dim); ("t1", Obs.Span.Float t1) ]
    "transient.integrate"
  @@ fun () ->
  Obs.Scope.with_scope "transient" @@ fun () ->
  let w = work dae.Dae.dim in
  let x = ref (Array.copy x0) in
  let times = ref [ t0 ] and states = ref [ !x ] in
  let prev = ref None in
  let t = ref t0 in
  while !t < t1 -. (1e-12 *. Float.max 1. (Float.abs t1)) do
    let step = Float.min h (t1 -. !t) in
    (* the one copy of the accepted state: the implicit steps return
       a buffer of [w] *)
    let x' =
      match method_ with
      | Backward_euler -> Array.copy (theta_into w dae ~theta:1. ~t:!t ~h:step !x)
      | Trapezoidal -> Array.copy (theta_into w dae ~theta:0.5 ~t:!t ~h:step !x)
      | Bdf2 ->
        (match !prev with
         | None -> Array.copy (theta_into w dae ~theta:0.5 ~t:!t ~h:step !x)
         | Some xp -> Array.copy (bdf2_into w dae ~t:!t ~h:step ~x_prev:xp !x))
      | Rk4 -> rk4_step dae ~t:!t ~h:step !x
    in
    prev := Some !x;
    x := x';
    Obs.Metrics.incr c_steps;
    if Obs.Events.active () then Obs.Events.emit (Obs.Events.Step_accept { t = !t; h = step });
    t := !t +. step;
    times := !t :: !times;
    states := x' :: !states
  done;
  { times = Array.of_list (List.rev !times); states = Array.of_list (List.rev !states) }

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
