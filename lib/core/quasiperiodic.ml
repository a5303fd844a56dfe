open Linalg
module Obs = Wampde_obs

type solution = { p2 : float; t2 : Vec.t; omega : Vec.t; slices : Vec.t array array }

exception Solve_failure of Nonlin.Newton.report

let () =
  Printexc.register_printer (function
    | Solve_failure report ->
      Some
        (Printf.sprintf
           "Wampde.Quasiperiodic.Solve_failure: Newton did not converge (residual %.3e after %d \
            iterations)"
           report.Nonlin.Newton.residual_norm report.Nonlin.Newton.iterations)
    | _ -> None)

let slice_times ~p2 ~n2 = Vec.init n2 (fun m -> p2 *. float_of_int m /. float_of_int n2)

(* worst-case t1 resolution over the slow slices *)
let note_spectrum slices =
  let tol = (Obs.Health.thresholds ()).Obs.Health.spectral_tol in
  let rs = Array.map (Fourier.Series.grid_resolution ~tol) slices in
  let worst f = Array.fold_left (fun acc r -> max acc (f r)) (f rs.(0)) rs in
  Obs.Health.note_spectrum
    ~tail:(worst (fun r -> r.Fourier.Series.tail))
    ~needed:(worst (fun r -> r.Fourier.Series.needed))
    ~available:rs.(0).Fourier.Series.available ()

let solve_semidisc ?cascade sd ~p2 ~n2 ~options ~solver ~label ~fn ~omega slices =
  match
    Dae.Periodic.solve ?cascade sd ~p2 ~d2:(Fourier.Series.diff_matrix n2) ~options ~solver
      ~label ~fn ~omega slices
  with
  | Error outcome -> Error outcome.Nonlin.Polyalg.report
  | Ok (omega, slices) ->
    if Obs.enabled () then note_spectrum slices;
    Ok { p2; t2 = slice_times ~p2 ~n2; omega; slices }

let solve dae ?(max_iterations = 25) ?(tol = 1e-8) ~(options : Envelope.options) ~p2 ~n2
    ~guess () =
  let n1 = options.Envelope.n1 in
  if n1 mod 2 = 0 || n2 mod 2 = 0 then
    invalid_arg "Quasiperiodic.solve: n1 and n2 must be odd";
  Obs.Span.span
    ~attrs:
      [ ("n1", Obs.Span.Int n1); ("n2", Obs.Span.Int n2); ("dim", Obs.Span.Int dae.Dae.dim) ]
    "quasiperiodic.solve"
  @@ fun () ->
  Obs.Scope.with_scope "quasiperiodic" @@ fun () ->
  let newton =
    { Nonlin.Newton.default_options with max_iterations; residual_tol = tol; min_damping = 1e-3;
      step_tol = 0. }
  in
  match
    solve_semidisc (Envelope.semidisc dae options) ~p2 ~n2 ~options:newton
      ~solver:options.Envelope.solver ~label:"quasiperiodic" ~fn:"Quasiperiodic.solve"
      ~omega:guess.omega guess.slices
  with
  | Ok sol ->
    (* the first slice that is not an oscillation (omega <= 0, or
       quenched against the guess's largest swing) makes the answer
       nonphysical *)
    let reference =
      Array.fold_left (fun acc s -> Float.max acc (Envelope.amplitude options s)) 0. guess.slices
    in
    Array.iteri
      (fun m om ->
        Envelope.check_oscillating ~fn:"Quasiperiodic.solve" options ~reference ~t2:sol.t2.(m)
          ~omega:om sol.slices.(m))
      sol.omega;
    sol
  | Error report -> raise (Solve_failure report)

(* The guess from an envelope run: the accepted step nearest to each
   slice time of the period that starts at [t_from]. *)
let guess_from_envelope (result : Envelope.result) ~p2 ~n2 ~t_from =
  let nearest t =
    let t2 = result.Envelope.t2 in
    let best = ref 0 in
    Array.iteri (fun i ti -> if Float.abs (ti -. t) < Float.abs (t2.(!best) -. t) then best := i)
      t2;
    !best
  in
  let idx = Array.map (fun t -> nearest (t_from +. t)) (slice_times ~p2 ~n2) in
  {
    p2;
    t2 = slice_times ~p2 ~n2;
    omega = Array.map (fun i -> result.Envelope.omega.(i)) idx;
    slices = Array.map (fun i -> Array.map Array.copy result.Envelope.slices.(i)) idx;
  }

let c_refinements = Obs.Metrics.counter "quasiperiodic.refinements"

(* [from_orbit]'s warm-up marches [warmup_periods] slow periods at a
   step that puts every slice time on a step, with at least
   [min_steps_per_period] steps a period *)
let warmup_periods = 3
let warmup_horizon ~p2 = p2 *. float_of_int warmup_periods
let min_steps_per_period = 20

let from_orbit dae ~(options : Envelope.options) ~p2 ~n2 ~init () =
  (* the warm-up march runs on the size-based path; [options.solver]
     is the periodic solve's *)
  let warm_options = { options with Envelope.solver = Structured.auto } in
  let t_warm = warmup_horizon ~p2 in
  (* k steps between neighbouring slice times, doubled while the march
     fails at a step longer than the unforced orbit's period *)
  let rec warm_up k =
    let h2 = p2 /. float_of_int (k * n2) in
    match Envelope.simulate dae ~options:warm_options ~t2_end:t_warm ~h2 ~init with
    | env -> env
    | exception (Steady.Oscillator.Nonphysical _ | Step_control.Underflow _)
      when h2 > 1. /. init.Steady.Oscillator.omega ->
      Obs.Metrics.incr c_refinements;
      warm_up (2 * k)
  in
  let env = warm_up ((min_steps_per_period + n2 - 1) / n2) in
  solve dae ~options ~p2 ~n2 ~guess:(guess_from_envelope env ~p2 ~n2 ~t_from:(t_warm -. p2)) ()

let residual_norm dae ~(options : Envelope.options) sol =
  let sd = Envelope.semidisc dae options in
  let sys =
    Dae.Semidisc.periodic sd ~p2:sol.p2 ~d2:(Fourier.Series.diff_matrix (Array.length sol.slices))
  in
  let res = Dae.Semidisc.periodic_residual sys (Dae.Periodic.pack sd ~omega:sol.omega sol.slices) in
  let bs = Dae.Semidisc.size sd in
  let worst = ref 0. in
  Array.iteri
    (fun idx v -> if idx mod bs <> bs - 1 then worst := Float.max !worst (Float.abs v))
    res;
  !worst

let mean_frequency sol = Vec.mean sol.omega
