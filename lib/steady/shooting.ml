open Linalg
module Obs = Wampde_obs

type result = { x0 : Vec.t; period : float; iterations : int }

let flow dae ~t0 ~t1 ~steps x0 =
  if t1 <= t0 then Array.copy x0
  else begin
    let h = (t1 -. t0) /. float_of_int steps in
    let traj = Transient.integrate dae ~method_:Transient.Trapezoidal ~t0 ~t1 ~h x0 in
    Transient.final traj
  end

let autonomous dae ?(steps_per_period = 200) ?(phase_component = 0) ?(tol = 1e-8) ~period_guess
    x0 =
  Obs.Span.span ~attrs:[ ("dim", Obs.Span.Int dae.Dae.dim) ] "shooting.autonomous" @@ fun () ->
  Obs.Scope.with_scope "shooting" @@ fun () ->
  let n = dae.Dae.dim in
  (* unknowns: [x0; period] *)
  let residual y =
    let x = Array.sub y 0 n and t = y.(n) in
    if t <= 0. then Array.make (n + 1) 1e6
    else begin
      let xt = flow dae ~t0:0. ~t1:t ~steps:steps_per_period x in
      let r = Array.make (n + 1) 0. in
      for i = 0 to n - 1 do
        r.(i) <- xt.(i) -. x.(i)
      done;
      (* phase anchor: the chosen component starts at an extremum *)
      let xdot = Dae.consistent_derivative dae ~t:0. x in
      r.(n) <- xdot.(phase_component);
      r
    end
  in
  let y0 = Array.append x0 [| period_guess |] in
  let options =
    { Nonlin.Newton.default_options with max_iterations = 40; residual_tol = tol }
  in
  let outcome =
    Nonlin.Polyalg.solve ~options ~label:"shooting.autonomous" ~residual y0
  in
  let report = outcome.Nonlin.Polyalg.report in
  if not report.Nonlin.Newton.converged then
    raise
      (Nonlin.Polyalg.Solve_failed
         { label = "shooting.autonomous"; attempts = outcome.Nonlin.Polyalg.attempts });
  {
    x0 = Array.sub report.Nonlin.Newton.x 0 n;
    period = report.Nonlin.Newton.x.(n);
    iterations = report.Nonlin.Newton.iterations;
  }

