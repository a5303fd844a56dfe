open Linalg
module Obs = Wampde_obs

(* Trust-region Newton with a dogleg step on the Cauchy/Newton pair,
   globalizing the merit function f(x) = 0.5 ||r(x)||^2.  The adaptive
   radius follows the classic rho-test (shrink on poor model agreement,
   grow when a boundary step agrees well), the same scheme
   NonlinearSolve.jl's TrustRegion uses by default. *)

let c_solves = Obs.Metrics.counter "trust_region.solves"
let c_iters = Obs.Metrics.counter "trust_region.iterations"
let c_rejected = Obs.Metrics.counter "trust_region.rejected"

let merit r = 0.5 *. Vec.dot r r

(* The quadratic model at the current iterate, minus the radius: the
   Jacobian, the gradient g = J^T r, ||g||, ||J g||^2 and the Newton
   point (None when J is singular).  A rejected step leaves x and r
   unchanged, so the model is kept and only the dogleg is redone for the
   smaller radius. *)
type model = { j : Mat.t; g : Vec.t; gnorm : float; jg2 : float; p_newton : Vec.t option }

let solve ?(options = Newton.default_options) ?(label = "trust_region") ?jacobian ~residual x0 =
  Obs.Span.span
    ~attrs:[ ("label", Obs.Span.Str label); ("dim", Obs.Span.Int (Array.length x0)) ]
    "trust_region.solve"
  @@ fun () ->
  let residual = if Fault.armed () then Newton.fault_residual residual else residual in
  let x = ref (Array.copy x0) in
  let r = ref (residual !x) in
  let rnorm = ref (Vec.norm_inf !r) in
  let delta = ref (Float.max 1. (Vec.norm2 x0)) in
  let delta_min = 1e-13 *. (1. +. Vec.norm2 x0) in
  let finish ~iterations ~converged ~reason =
    Obs.Metrics.incr c_solves;
    Obs.Metrics.add c_iters iterations;
    if Obs.Events.active () then
      Obs.Events.emit
        (Obs.Events.Newton_done { solver = label; iterations; residual = !rnorm; converged });
    { Newton.x = !x; residual_norm = !rnorm; iterations; converged; reason }
  in
  (* None when the gradient vanishes or is not finite *)
  let build_model () =
    let j = match jacobian with Some j -> j !x | None -> Fdjac.jacobian ~f0:!r residual !x in
    let g = Mat.tmatvec j !r in
    let gnorm = Vec.norm2 g in
    if gnorm = 0. || not (Float.is_finite gnorm) then None
    else begin
      let jg = Mat.matvec j g in
      let p_newton =
        (* a copy: the dogleg reuses [j] unfactored *)
        match Lu.solve (Lu.factor j) !r with
        | dx ->
          Vec.scale_inplace (-1.) dx;
          if Float.is_finite (Vec.norm2 dx) then Some dx else None
        | exception (Lu.Singular _ | Newton.Linear_solve_failed _) -> None
      in
      Some { j; g; gnorm; jg2 = Vec.dot jg jg; p_newton }
    end
  in
  let rec iterate k model =
    if not (Float.is_finite !rnorm) then
      finish ~iterations:k ~converged:false ~reason:(Some Newton.Non_finite_residual)
    else if !rnorm <= options.Newton.residual_tol then
      finish ~iterations:k ~converged:true ~reason:None
    else if k >= options.Newton.max_iterations then
      finish ~iterations:k ~converged:false ~reason:(Some Newton.Iteration_limit)
    else if !delta < delta_min then
      (* radius collapse: the model never agrees with the function *)
      finish ~iterations:k ~converged:false ~reason:(Some Newton.Line_search_failed)
    else
      match (match model with Some _ -> model | None -> build_model ()) with
      | None -> finish ~iterations:k ~converged:false ~reason:(Some Newton.Singular_jacobian)
      | Some ({ j; g; gnorm; jg2; p_newton } as m) ->
        (* steepest-descent minimizer of the model along -g *)
        let p_cauchy =
          if jg2 > 0. then Vec.scale (-.(gnorm *. gnorm) /. jg2) g
          else Vec.scale (-.(!delta) /. gnorm) g
        in
        (* dogleg step for the current radius *)
        let dogleg delta =
          match p_newton with
          | Some pn when Vec.norm2 pn <= delta -> pn
          | _ ->
            let cn = Vec.norm2 p_cauchy in
            if cn >= delta then Vec.scale (delta /. cn) p_cauchy
            else (
              match p_newton with
              | None -> p_cauchy
              | Some pn ->
                (* walk from the Cauchy point towards the Newton point
                   until the radius: || pC + tau (pN - pC) || = delta *)
                let d = Vec.sub pn p_cauchy in
                let a = Vec.dot d d in
                let b = 2. *. Vec.dot p_cauchy d in
                let c = (cn *. cn) -. (delta *. delta) in
                let disc = Float.max 0. ((b *. b) -. (4. *. a *. c)) in
                let tau = if a > 0. then (-.b +. sqrt disc) /. (2. *. a) else 0. in
                let tau = Float.max 0. (Float.min 1. tau) in
                Array.mapi (fun i pi -> pi +. (tau *. d.(i))) p_cauchy)
        in
        let p = dogleg !delta in
        let jp = Mat.matvec j p in
        let pred = -.Vec.dot g p -. (0.5 *. Vec.dot jp jp) in
        let trial = Array.mapi (fun i xi -> xi +. p.(i)) !x in
        let rt = residual trial in
        let ft = merit rt in
        let ared = merit !r -. ft in
        let pnorm = Vec.norm2 p in
        let rho =
          if not (Float.is_finite ft) then -1.
          else if pred > 0. then ared /. pred
          else if ared > 0. then 1.
          else -1.
        in
        if rho < 0.25 then delta := 0.25 *. pnorm
        else if rho > 0.75 && pnorm >= 0.99 *. !delta then delta := Float.min (2. *. !delta) 1e12;
        if rho > 1e-4 then begin
          x := trial;
          r := rt;
          rnorm := Vec.norm_inf rt;
          iterate (k + 1) None
        end
        else begin
          Obs.Metrics.incr c_rejected;
          iterate (k + 1) (Some m)
        end
  in
  iterate 0 None
