open Linalg
module Obs = Wampde_obs

(* Pseudo-transient continuation: damp Newton with an implicit-Euler
   pseudo time step, solving (delta^-1 I + J) dx = -r and letting the
   step grow as the residual falls (switched evolution relaxation,
   SER).  For small delta this is heavily regularized gradient-like
   descent; as delta -> infinity it turns into plain Newton, so the
   iteration follows the pseudo-transient to the steady state even when
   Newton's basin is tiny. *)

let c_solves = Obs.Metrics.counter "ptc.solves"
let c_iters = Obs.Metrics.counter "ptc.iterations"

let solve ?(options = Newton.default_options) ?(label = "ptc") ?jacobian ~residual x0 =
  Obs.Span.span
    ~attrs:[ ("label", Obs.Span.Str label); ("dim", Obs.Span.Int (Array.length x0)) ]
    "ptc.solve"
  @@ fun () ->
  let residual = if Fault.armed () then Newton.fault_residual residual else residual in
  let n = Array.length x0 in
  let x = ref (Array.copy x0) in
  let r = ref (residual !x) in
  let rnorm = ref (Vec.norm_inf !r) in
  let delta = ref 0.1 in
  let delta_max = 1e12 in
  (* SER needs more headroom than a pure Newton budget *)
  let max_iterations = 2 * options.Newton.max_iterations in
  let finish ~iterations ~converged ~reason =
    Obs.Metrics.incr c_solves;
    Obs.Metrics.add c_iters iterations;
    if Obs.Events.active () then
      Obs.Events.emit
        (Obs.Events.Newton_done { solver = label; iterations; residual = !rnorm; converged });
    { Newton.x = !x; residual_norm = !rnorm; iterations; converged; reason }
  in
  (* [j] is the Jacobian at the current iterate when a step that left
     the iterate in place already formed it: only the shift changes *)
  let rec iterate k j =
    if not (Float.is_finite !rnorm) then
      finish ~iterations:k ~converged:false ~reason:(Some Newton.Non_finite_residual)
    else if !rnorm <= options.Newton.residual_tol then
      finish ~iterations:k ~converged:true ~reason:None
    else if k >= max_iterations then
      finish ~iterations:k ~converged:false ~reason:(Some Newton.Iteration_limit)
    else if !delta < 1e-14 then
      finish ~iterations:k ~converged:false ~reason:(Some Newton.Singular_jacobian)
    else begin
      let j =
        match (j, jacobian) with
        | Some j, _ -> j
        | None, Some jac -> jac !x
        | None, None -> Fdjac.jacobian ~f0:!r residual !x
      in
      let shift = 1. /. !delta in
      let m = Mat.init n n (fun i l -> j.(i).(l) +. if i = l then shift else 0.) in
      match Lu.solve (Lu.factor_into m ~perm:(Array.make n 0)) !r with
      | exception (Lu.Singular _ | Newton.Linear_solve_failed _) ->
        (* the shifted system should be well conditioned for small
           delta; shrink the pseudo step and retry *)
        delta := !delta /. 4.;
        iterate (k + 1) (Some j)
      | dx ->
        Vec.scale_inplace (-1.) dx;
        let trial = Array.mapi (fun i xi -> xi +. dx.(i)) !x in
        let rt = residual trial in
        let rtnorm = Vec.norm_inf rt in
        if not (Float.is_finite rtnorm) then begin
          (* stay put, take a smaller pseudo step *)
          delta := !delta /. 4.;
          iterate (k + 1) (Some j)
        end
        else begin
          (* SER: grow the step inversely with residual progress *)
          let ratio = if rtnorm > 0. then !rnorm /. rtnorm else 10. in
          delta := Float.min delta_max (!delta *. Float.max 0.1 (Float.min 10. ratio));
          x := trial;
          r := rt;
          rnorm := rtnorm;
          if Obs.Events.active () then
            Obs.Events.emit
              (Obs.Events.Newton_iter
                 { solver = label; k = k + 1; residual = rtnorm; damping = 1. });
          iterate (k + 1) None
        end
    end
  in
  iterate 0 None
