open Linalg
module Obs = Wampde_obs

type options = {
  max_iterations : int;
  residual_tol : float;
  step_tol : float;
  min_damping : float;
  x_scale : Vec.t option;
}

let default_options =
  { max_iterations = 50; residual_tol = 1e-10; step_tol = 1e-12; min_damping = 1e-4; x_scale = None }

type failure_reason =
  | Singular_jacobian
  | Line_search_failed
  | Iteration_limit
  | Non_finite_residual

exception Linear_solve_failed of string

type report = {
  x : Vec.t;
  residual_norm : float;
  iterations : int;
  converged : bool;
  reason : failure_reason option;
}

(* [Vec.norm_inf] in place, so the iteration's norms stay unboxed: a
   float a call returns is boxed *)
let[@inline] norm_inf v =
  let m = ref 0. in
  for i = 0 to Array.length v - 1 do
    m := Float.max !m (Float.abs v.(i))
  done;
  !m

let[@inline] scaled_norm options v =
  match options.x_scale with
  | Some scale -> Vec.weighted_norm ~scale v
  | None -> norm_inf v

let c_solves = Obs.Metrics.counter "newton.solves"
let c_iters = Obs.Metrics.counter "newton.iterations"
let c_failures = Obs.Metrics.counter "newton.failures"
let h_iters = Obs.Metrics.histogram "newton.iterations_per_solve"

(* Fault-injection hooks.  [Fault.fire] is a single branch when the
   harness is disarmed; the wrappers are only installed when armed so
   the production path keeps its direct calls. *)
let fault_residual residual x =
  Fault.maybe_stall ();
  let r = residual x in
  if Fault.fire Fault.Nan_residual && Array.length r > 0 then begin
    let r = Array.copy r in
    r.(0) <- Float.nan;
    r
  end
  else r

type workspace = { x : Vec.t; r : Vec.t; dx : Vec.t; trial : Vec.t; rt : Vec.t }

let workspace n =
  let v () = Array.make n 0. in
  { x = v (); r = v (); dx = v (); trial = v (); rt = v () }

(* [fault_residual] on a caller-owned buffer, and the linear-solve
   hook: a failed solve, or a direction blown up by 1e8. *)
let fault_residual_into residual_into x dst =
  Fault.maybe_stall ();
  residual_into x dst;
  if Fault.fire Fault.Nan_residual && Array.length dst > 0 then dst.(0) <- Float.nan

let fault_linear_solve_into linear_solve_into x r dx =
  if Fault.fire Fault.Linear_solve then
    raise (Linear_solve_failed "fault injected: linear solve");
  linear_solve_into x r dx;
  if Fault.fire Fault.Newton_diverge then Vec.scale_inplace 1e8 dx

(* The damped iteration behind [solve_into].  No closure captures its
   refs, so they live in registers, and the backtracking is a loop:
   the only allocation is the report. *)
let iterate options label ws linear_solve_into residual_into x0 =
  let n = Array.length ws.x in
  let residual_into =
    if Fault.armed () then fault_residual_into residual_into else residual_into
  in
  let linear_solve_into =
    if Fault.armed () then fault_linear_solve_into linear_solve_into else linear_solve_into
  in
  (* accepted iterate and residual; a trial that passes the line search
     swaps places with them instead of being copied *)
  let x = ref ws.x and r = ref ws.r and trial = ref ws.trial and rt = ref ws.rt in
  let dx = ws.dx in
  Array.blit x0 0 !x 0 n;
  residual_into !x !r;
  let rnorm = ref (norm_inf !r) in
  let k = ref 0 and running = ref true and converged = ref false and reason = ref None in
  while !running do
    if not (Float.is_finite !rnorm) then begin
      running := false;
      reason := Some Non_finite_residual
    end
    else if !rnorm <= options.residual_tol then begin
      running := false;
      converged := true
    end
    else if !k >= options.max_iterations then begin
      running := false;
      reason := Some Iteration_limit
    end
    else begin
      match linear_solve_into !x !r dx with
      | exception (Lu.Singular _ | Linear_solve_failed _) ->
        running := false;
        reason := Some Singular_jacobian
      | () ->
        Vec.scale_inplace (-1.) dx;
        (* backtracking line search: accept a step that reduces ||r|| *)
        let lambda = ref 1. and rtnorm = ref 0. and found = ref false in
        while (not !found) && not (!lambda < options.min_damping) do
          let xv = !x and tv = !trial in
          for i = 0 to n - 1 do
            tv.(i) <- xv.(i) +. (!lambda *. dx.(i))
          done;
          residual_into tv !rt;
          rtnorm := norm_inf !rt;
          if Float.is_finite !rtnorm && (!rtnorm < !rnorm || !rtnorm <= options.residual_tol)
          then found := true
          else lambda := !lambda /. 2.
        done;
        if not !found then begin
          running := false;
          reason := Some Line_search_failed
        end
        else begin
          let step_norm = scaled_norm options dx *. !lambda in
          let xv = !x and rv = !r in
          x := !trial;
          trial := xv;
          r := !rt;
          rt := rv;
          rnorm := !rtnorm;
          incr k;
          if !rnorm <= options.residual_tol then begin
            running := false;
            converged := true
          end
          else if step_norm <= options.step_tol then begin
            (* update negligible: declare convergence if the residual is
               small in a relative sense, otherwise report a stall *)
            running := false;
            converged := !rnorm <= sqrt options.residual_tol;
            if not !converged then reason := Some Line_search_failed
          end
        end
    end
  done;
  let iterations = !k and converged = !converged in
  Obs.Metrics.incr c_solves;
  Obs.Metrics.add c_iters iterations;
  (* the guard keeps the float unboxed while telemetry is off *)
  if Obs.enabled () then Obs.Metrics.observe h_iters (float_of_int iterations);
  if not converged then Obs.Metrics.incr c_failures;
  if Obs.Events.active () then
    Obs.Events.emit
      (Obs.Events.Newton_done { solver = label; iterations; residual = !rnorm; converged });
  { x = !x; residual_norm = !rnorm; iterations; converged; reason = !reason }

let solve_into ?(options = default_options) ?(label = "newton") ~ws ~linear_solve_into
    ~residual_into x0 =
  let n = Array.length ws.x in
  if Array.length x0 <> n then invalid_arg "Newton.solve_into: workspace size mismatch";
  if Obs.Span.tracing () then
    Obs.Span.span
      ~attrs:[ ("label", Obs.Span.Str label); ("dim", Obs.Span.Int n) ]
      "newton.solve"
      (fun () -> iterate options label ws linear_solve_into residual_into x0)
  else iterate options label ws linear_solve_into residual_into x0

(* The allocating interface over [solve_into]: a workspace per call,
   whose buffers the report then owns. *)
let solve_with ?options ?label ~linear_solve ~residual x0 =
  let residual_into x dst =
    let r = residual x in
    Array.blit r 0 dst 0 (Array.length dst)
  in
  let linear_solve_into x r dx =
    let d = linear_solve x r in
    Array.blit d 0 dx 0 (Array.length dx)
  in
  solve_into ?options ?label ~ws:(workspace (Array.length x0)) ~linear_solve_into ~residual_into x0

let solve ?options ?label ?jacobian ~residual x0 =
  let linear_solve x r =
    let lu =
      match jacobian with
      | Some j ->
        (* a copy: the [jacobian] callback may return a shared matrix *)
        Lu.factor (j x)
      | None ->
        (* the difference Jacobian is this call's own: factor it in place *)
        Lu.factor_into (Fdjac.jacobian ~f0:r residual x) ~perm:(Array.make (Array.length r) 0)
    in
    Lu.solve lu r
  in
  solve_with ?options ?label ~linear_solve ~residual x0

let scalar ?(tol = 1e-12) ?(max_iterations = 60) f df x0 =
  let rec go x k =
    let fx = f x in
    if Float.abs fx <= tol then x
    else if k >= max_iterations then
      failwith (Printf.sprintf "Newton.scalar: no convergence (f = %.3e)" fx)
    else begin
      let d = df x in
      if d = 0. then failwith "Newton.scalar: zero derivative";
      go (x -. (fx /. d)) (k + 1)
    end
  in
  go x0 0
