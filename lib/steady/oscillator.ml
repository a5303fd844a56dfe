open Linalg
module Obs = Wampde_obs

type orbit = Floquet.orbit = { omega : float; grid : Vec.t array }

exception Nonphysical of string

let () =
  Printexc.register_printer (function
    | Nonphysical msg -> Some ("Oscillator.Nonphysical: " ^ msg)
    | _ -> None)

let period orbit = 1. /. orbit.omega

(* [find]'s warm-up integrates [short_warmup_cycles] hinted periods
   at [short_steps_per_cycle] trapezoidal steps each; the fallback's,
   [long_warmup_cycles] at [long_steps_per_cycle].  The polished orbit
   is kept when its largest non-trivial Floquet multiplier, from a
   [gate_steps]-step monodromy, is below [1 - stability_margin].  The
   phase condition pins variable [phase_component]. *)
let phase_component = 0
let short_warmup_cycles = 8
let short_steps_per_cycle = 30
let long_warmup_cycles = 34
let long_steps_per_cycle = 100
let gate_steps = 50
let stability_margin = 1e-3

(* the quenched-orbit floor of [polish], documented in the .mli *)
let quench_fraction = 1e-3

(* half the peak-to-peak excursion of variable [i] over [states] *)
let swing states i =
  let samples = Array.map (fun s -> s.(i)) states in
  let hi = Array.fold_left Float.max neg_infinity samples in
  let lo = Array.fold_left Float.min infinity samples in
  (hi -. lo) /. 2.

(* The orbit is the periodic-in-t2 system at n2 = 1 (no t2 dependence,
   autonomous: t = 0 throughout), omega unknown and closed by the
   derivative phase row on [phase_component]. *)
let solve dae ~n1 ~guess ~omega_guess =
  Obs.Span.span
    ~attrs:[ ("n1", Obs.Span.Int n1); ("dim", Obs.Span.Int dae.Dae.dim) ]
    "oscillator.solve"
  @@ fun () ->
  Obs.Scope.with_scope "oscillator" @@ fun () ->
  let d = Fourier.Series.diff_matrix n1 in
  let row = Dae.Phase.row (Dae.Phase.Derivative phase_component) ~n1 ~n:dae.Dae.dim ~d in
  let sd = Dae.Semidisc.make dae ~d ~omega:(Dae.Semidisc.Unknown row) ~forcing:None in
  let options = { Nonlin.Newton.default_options with max_iterations = 80; residual_tol = 1e-12 } in
  match
    Dae.Periodic.solve sd ~p2:1. ~d2:(Fourier.Series.diff_matrix 1) ~options
      ~solver:Structured.Dense ~label:"oscillator" ~fn:"Oscillator.polish"
      ~omega:[| omega_guess |] [| guess |]
  with
  | Ok (omega, grids) -> { omega = omega.(0); grid = grids.(0) }
  | Error outcome ->
    raise
      (Nonlin.Polyalg.Solve_failed
         { label = "oscillator"; attempts = outcome.Nonlin.Polyalg.attempts })

(* [window] holds the warm-up samples that bracket every resampling
   time in [t_start, t_start + period): interpolating in it gives the
   same values, bit for bit, as interpolating in the whole trajectory. *)
type warmed = { period : float; t_start : float; window : Transient.trajectory }

let warm_up dae ~period_hint ~cycles ~steps_per_cycle x0 =
  let h = period_hint /. float_of_int steps_per_cycle in
  let t_end = period_hint *. float_of_int cycles in
  let traj = Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:t_end ~h x0 in
  let comp = Transient.component traj phase_component in
  let mean = Vec.mean comp in
  let centered = Vec.map (fun x -> x -. mean) comp in
  let times = traj.Transient.times in
  let crossings = Sigproc.Zero_crossing.upward ~times centered in
  let m = Array.length crossings in
  if m < 4 then
    raise (Nonphysical "Oscillator.settle: too few oscillation cycles in warm-up transient");
  (* average the last few settled periods *)
  let avg_over = Int.min 5 (m - 1) in
  let period =
    (crossings.(m - 1) -. crossings.(m - 1 - avg_over)) /. float_of_int avg_over
  in
  (* one period ending at the last crossing, widened by one sample on
     each side so no resampling time falls on the window's ends *)
  let t_start = crossings.(m - 1) -. period and t_stop = crossings.(m - 1) in
  let last = Array.length times - 1 in
  let lo = ref 0 and hi = ref last in
  while !lo < last && times.(!lo + 1) < t_start do incr lo done;
  while !hi > 0 && times.(!hi - 1) > t_stop do decr hi done;
  let keep a = Array.sub a !lo (!hi - !lo + 1) in
  { period; t_start; window = { Transient.times = keep times; states = keep traj.Transient.states } }

(* [short] is the short warm-up ([None] when it failed); [long] runs
   the fallback warm-up once, on first use, under a lock so that two
   domains polishing from one [settled] share one run. *)
type settled = { short : warmed option; long : unit -> warmed }

let once f =
  let lock = Mutex.create () and result = ref None in
  fun () ->
    Mutex.protect lock (fun () ->
        match !result with
        | Some v -> v
        | None ->
          let v = f () in
          result := Some v;
          v)

let settle dae ~period_hint x0 =
  Obs.Scope.with_scope "oscillator" @@ fun () ->
  let long =
    once (fun () ->
        warm_up dae ~period_hint ~cycles:long_warmup_cycles ~steps_per_cycle:long_steps_per_cycle
          x0)
  in
  match
    warm_up dae ~period_hint ~cycles:short_warmup_cycles ~steps_per_cycle:short_steps_per_cycle x0
  with
  | w -> { short = Some w; long }
  | exception (Nonphysical _ | Transient.Step_failure _) ->
    ignore (long ());
    { short = None; long }

let polish_warmed dae ~n1 { period; t_start; window } =
  let raw =
    Array.init n1 (fun j ->
        let t = t_start +. (period *. float_of_int j /. float_of_int n1) in
        Vec.init dae.Dae.dim (fun i -> Transient.interpolate window i t))
  in
  (* rotate so the phase component peaks at grid index 0 *)
  let peak = ref 0 in
  for j = 1 to n1 - 1 do
    if raw.(j).(phase_component) > raw.(!peak).(phase_component) then peak := j
  done;
  let guess = Array.init n1 (fun j -> raw.((j + !peak) mod n1)) in
  let orbit = solve dae ~n1 ~guess ~omega_guess:(1. /. period) in
  let amplitude = swing orbit.grid phase_component in
  let warm = swing window.Transient.states phase_component in
  if amplitude < quench_fraction *. warm then
    raise
      (Nonphysical
         (Printf.sprintf
            "Oscillator.polish: converged to an equilibrium (amplitude %.3g of variable %d, %.3g \
             in the warm-up)"
            amplitude phase_component warm));
  if orbit.omega <= 0. then
    raise (Nonphysical "Oscillator.polish: converged to non-positive frequency");
  orbit

(* the orbit polished from the short warm-up, if it is shown stable *)
let gated dae ~n1 warmed =
  match polish_warmed dae ~n1 warmed with
  | exception (Nonphysical _ | Nonlin.Polyalg.Solve_failed _ | Transient.Step_failure _) -> None
  | orbit -> (
    match Floquet.analyze_orbit dae ~steps_per_period:gate_steps orbit with
    | report when report.Floquet.largest_nontrivial < 1. -. stability_margin -> Some orbit
    | _ | (exception (Poly.No_convergence _ | Lu.Singular _ | Transient.Step_failure _)) -> None)

let check_n1 n1 = if n1 mod 2 = 0 then invalid_arg "Oscillator.polish: n1 must be odd"

let polish_long dae ~n1 settled =
  check_n1 n1;
  Obs.Scope.with_scope "oscillator" @@ fun () -> polish_warmed dae ~n1 (settled.long ())

let polish dae ~n1 settled =
  check_n1 n1;
  match
    Obs.Scope.with_scope "oscillator" @@ fun () -> Option.bind settled.short (gated dae ~n1)
  with
  | Some orbit -> orbit
  | None -> polish_long dae ~n1 settled

let find dae ~n1 ~period_hint x0 =
  Obs.Span.span
    ~attrs:[ ("n1", Obs.Span.Int n1); ("dim", Obs.Span.Int dae.Dae.dim) ]
    "oscillator.find"
  @@ fun () -> polish dae ~n1 (settle dae ~period_hint x0)

let amplitude orbit ~component = swing orbit.grid component
