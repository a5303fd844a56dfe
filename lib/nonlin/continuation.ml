open Linalg

type point = { lambda : float; x : Vec.t }

exception Step_underflow of { lambda : float; step : float; last : Newton.report option }

let () =
  Printexc.register_printer (function
    | Step_underflow { lambda; step; last } ->
      let tail =
        match last with
        | Some r ->
          Printf.sprintf " (last corrector: residual %.3e after %d iterations)"
            r.Newton.residual_norm r.Newton.iterations
        | None -> ""
      in
      Some
        (Printf.sprintf
           "Continuation.Step_underflow: step %.3e below minimum at lambda = %g%s" step lambda
           tail)
    | _ -> None)

let trace ?options ?(initial_step = 0.1) ?(min_step = 1e-6) ?(max_step = infinity) ~residual
    ~from_ ~to_ x0 =
  if from_ = to_ then begin
    let r = Newton.solve ?options ~residual:(residual to_) x0 in
    if not r.Newton.converged then
      raise (Step_underflow { lambda = from_; step = initial_step; last = Some r });
    [ { lambda = to_; x = r.Newton.x } ]
  end
  else begin
    let dir = if to_ > from_ then 1. else -1. in
    let span = Float.abs (to_ -. from_) in
    let rec go lambda x step last acc =
      if step < min_step then raise (Step_underflow { lambda; step; last })
      else begin
        let next = lambda +. (dir *. Float.min step (Float.min max_step span)) in
        let next = if dir *. (next -. to_) >= 0. then to_ else next in
        let r = Newton.solve ?options ~residual:(residual next) x in
        if r.Newton.converged then begin
          let acc = { lambda = next; x = r.Newton.x } :: acc in
          if next = to_ then List.rev acc
          else begin
            (* grow the step when Newton converged comfortably *)
            let step' = if r.Newton.iterations <= 3 then step *. 1.7 else step in
            go next r.Newton.x (Float.min step' max_step) (Some r) acc
          end
        end
        else go lambda x (step /. 2.) (Some r) acc
      end
    in
    go from_ (Array.copy x0) initial_step None []
  end

