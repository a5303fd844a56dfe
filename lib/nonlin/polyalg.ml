module Obs = Wampde_obs

type strategy = Damped | Trust_region

let strategy_name = function Damped -> "damped" | Trust_region -> "trust_region"

type attempt = { strategy : strategy; report : Newton.report }
type outcome = { report : Newton.report; strategy : strategy; attempts : attempt list }

exception Solve_failed of { label : string; attempts : attempt list }

let () =
  Printexc.register_printer (function
    | Solve_failed { label; attempts } ->
      let tried =
        attempts |> List.map (fun (a : attempt) -> strategy_name a.strategy) |> String.concat ", "
      in
      let residual =
        match attempts with
        | [] -> nan
        | _ ->
          let a : attempt = List.nth attempts (List.length attempts - 1) in
          a.report.Newton.residual_norm
      in
      Some
        (Printf.sprintf "Polyalg.Solve_failed: %s exhausted strategies [%s] (residual %.3e)"
           label tried residual)
    | _ -> None)

let default_cascade = [ Damped; Trust_region ]

let c_damped = Obs.Metrics.counter "newton.strategy.damped"
let c_tr = Obs.Metrics.counter "newton.strategy.trust_region"
let c_escalations = Obs.Metrics.counter "newton.strategy.escalations"
let c_failed = Obs.Metrics.counter "newton.strategy.failed"

let c_won = function Damped -> c_damped | Trust_region -> c_tr

let solve ?(options = Newton.default_options) ?(label = "polyalg") ?(cascade = default_cascade)
    ?jacobian ?linear_solve ~residual x0 =
  if cascade = [] then invalid_arg "Polyalg.solve: empty cascade";
  Obs.Span.span
    ~attrs:[ ("label", Obs.Span.Str label); ("dim", Obs.Span.Int (Array.length x0)) ]
    "polyalg.solve"
  @@ fun () ->
  let attempt strategy : attempt =
    let slabel = label ^ "." ^ strategy_name strategy in
    let report =
      match strategy with
      | Damped -> (
        (* honors a caller-supplied (e.g. Krylov) direction solver;
           trust region rebuilds dense Jacobians, which is the
           Krylov -> dense escalation *)
        match linear_solve with
        | Some linear_solve -> Newton.solve_with ~options ~label:slabel ~linear_solve ~residual x0
        | None -> Newton.solve ~options ~label:slabel ?jacobian ~residual x0)
      | Trust_region -> Trust_region.solve ~options ~label:slabel ?jacobian ~residual x0
    in
    { strategy; report }
  in
  let rec go tried = function
    | [] ->
      Obs.Metrics.incr c_failed;
      let attempts = List.rev tried in
      (* surface the attempt that got closest *)
      let best =
        List.fold_left
          (fun (acc : attempt) (a : attempt) ->
            let better =
              Float.is_finite a.report.Newton.residual_norm
              && (not (Float.is_finite acc.report.Newton.residual_norm)
                 || a.report.Newton.residual_norm < acc.report.Newton.residual_norm)
            in
            if better then a else acc)
          (List.hd attempts) (List.tl attempts)
      in
      { report = best.report; strategy = best.strategy; attempts }
    | strategy :: rest ->
      let a = attempt strategy in
      if a.report.Newton.converged then begin
        Obs.Metrics.incr (c_won strategy);
        { report = a.report; strategy; attempts = List.rev (a :: tried) }
      end
      else begin
        (match rest with
         | next :: _ ->
           Obs.Metrics.incr c_escalations;
           Obs.Health.note_escalation ();
           if Obs.Events.active () then
             Obs.Events.emit
               (Obs.Events.Strategy_escalated
                  {
                    solver = label;
                    from_ = strategy_name strategy;
                    to_ = strategy_name next;
                  })
         | [] -> ());
        go (a :: tried) rest
      end
  in
  go [] cascade

