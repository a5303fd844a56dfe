open Linalg
module Obs = Wampde_obs

type orbit = { omega : float; grid : Vec.t array }

exception Nonphysical of string

let () =
  Printexc.register_printer (function
    | Nonphysical msg -> Some ("Oscillator.Nonphysical: " ^ msg)
    | _ -> None)

let period orbit = 1. /. orbit.omega

(* The warm-up integrates [warmup_cycles + 4] hinted periods at
   [transient_steps_per_cycle] trapezoidal steps each; the phase
   condition pins variable [phase_component]. *)
let phase_component = 0
let warmup_cycles = 30
let transient_steps_per_cycle = 100

(* Flat layout: y.(j * n + i) = variable i at grid point j; y.(n1 * n) = omega. *)
let pack grid omega =
  let n1 = Array.length grid in
  let n = Array.length grid.(0) in
  Vec.init ((n1 * n) + 1) (fun idx ->
      if idx = n1 * n then omega else grid.(idx / n).(idx mod n))

let unpack ~n1 ~n y = (Array.init n1 (fun j -> Array.sub y (j * n) n), y.(n1 * n))

(* One solve's collocation scratch: the grid states of the last
   evaluated point and their q, f, C and G, the charges flat as Q
   (j n + i) and (D (x) I) Q. *)
type colloc = {
  n1 : int;
  d : Mat.t;
  states : Vec.t array;
  qs : Vec.t array;
  fs : Vec.t array;
  cs : Mat.t array;
  gs : Mat.t array;
  q_flat : Vec.t;
  dq : Vec.t;
}

let colloc dae ~n1 =
  let n = dae.Dae.dim in
  let vecs () = Array.init n1 (fun _ -> Array.make n 0.) in
  let mats () = Array.init n1 (fun _ -> Mat.zeros n n) in
  {
    n1;
    d = Fourier.Series.diff_matrix n1;
    states = vecs ();
    qs = vecs ();
    fs = vecs ();
    cs = mats ();
    gs = mats ();
    q_flat = Array.make (n1 * n) 0.;
    dq = Array.make (n1 * n) 0.;
  }

(* Loads y's grid states and evaluates each once, autonomously
   (t = 0: no explicit slow forcing), into the requested outputs. *)
let evaluate dae cl y ~with_f ~with_jac =
  let n = dae.Dae.dim in
  for j = 0 to cl.n1 - 1 do
    Array.blit y (j * n) cl.states.(j) 0 n;
    dae.Dae.eval_into ~t:0. cl.states.(j) ~q:cl.qs.(j)
      ~f:(if with_f then cl.fs.(j) else [||])
      ~c:(if with_jac then cl.cs.(j) else [||])
      ~g:(if with_jac then cl.gs.(j) else [||]);
    let qj = cl.qs.(j) in
    for i = 0 to n - 1 do
      cl.q_flat.((j * n) + i) <- qj.(i)
    done
  done;
  Mat.kron_eye_into cl.d ~n ~lo:0 ~hi:cl.n1 cl.q_flat cl.dq

let collocation_residual dae cl y =
  let n = dae.Dae.dim and n1 = cl.n1 and d = cl.d in
  evaluate dae cl y ~with_f:true ~with_jac:false;
  let omega = y.(n1 * n) in
  let res = Array.make ((n1 * n) + 1) 0. in
  for j = 0 to n1 - 1 do
    let fj = cl.fs.(j) in
    for i = 0 to n - 1 do
      res.((j * n) + i) <- (omega *. cl.dq.((j * n) + i)) +. fj.(i)
    done
  done;
  (* phase condition: d x_comp / d t1 at grid point 0 *)
  let s = ref 0. in
  for k = 0 to n1 - 1 do
    s := !s +. (d.(0).(k) *. cl.states.(k).(phase_component))
  done;
  res.(n1 * n) <- !s;
  res

let collocation_jacobian dae cl y =
  let n = dae.Dae.dim and n1 = cl.n1 and d = cl.d in
  evaluate dae cl y ~with_f:false ~with_jac:true;
  let omega = y.(n1 * n) and cs = cl.cs in
  let dim = (n1 * n) + 1 in
  let jac = Mat.zeros dim dim in
  for j = 0 to n1 - 1 do
    let gj = cl.gs.(j) in
    let dj = d.(j) in
    for k = 0 to n1 - 1 do
      let djk = dj.(k) in
      if djk <> 0. || j = k then
        for i = 0 to n - 1 do
          for l = 0 to n - 1 do
            let value =
              (omega *. djk *. cs.(k).(i).(l)) +. (if j = k then gj.(i).(l) else 0.)
            in
            if value <> 0. then
              jac.((j * n) + i).((k * n) + l) <- jac.((j * n) + i).((k * n) + l) +. value
          done
        done
    done;
    (* d residual / d omega = (D Q)_j *)
    for i = 0 to n - 1 do
      jac.((j * n) + i).(n1 * n) <- cl.dq.((j * n) + i)
    done
  done;
  for k = 0 to n1 - 1 do
    jac.(n1 * n).((k * n) + phase_component) <- d.(0).(k)
  done;
  jac

let solve dae ~n1 ~guess ~omega_guess =
  Obs.Span.span
    ~attrs:[ ("n1", Obs.Span.Int n1); ("dim", Obs.Span.Int dae.Dae.dim) ]
    "oscillator.solve"
  @@ fun () ->
  Obs.Scope.with_scope "oscillator" @@ fun () ->
  let n = dae.Dae.dim in
  let cl = colloc dae ~n1 in
  let residual y = collocation_residual dae cl y in
  let jacobian y = collocation_jacobian dae cl y in
  let options = { Nonlin.Newton.default_options with max_iterations = 80; residual_tol = 1e-9 } in
  let outcome =
    Nonlin.Polyalg.solve ~options ~label:"oscillator" ~jacobian ~residual (pack guess omega_guess)
  in
  let report = outcome.Nonlin.Polyalg.report in
  if not report.Nonlin.Newton.converged then
    raise
      (Nonlin.Polyalg.Solve_failed
         { label = "oscillator"; attempts = outcome.Nonlin.Polyalg.attempts });
  let grid, omega = unpack ~n1 ~n report.Nonlin.Newton.x in
  if omega <= 0. then raise (Nonphysical "Oscillator.solve: converged to non-positive frequency");
  { omega; grid }

(* [window] holds the warm-up samples that bracket every resampling
   time in [t_start, t_start + period): interpolating in it gives the
   same values, bit for bit, as interpolating in the whole trajectory. *)
type settled = { period : float; t_start : float; window : Transient.trajectory }

let settle dae ~period_hint x0 =
  Obs.Scope.with_scope "oscillator" @@ fun () ->
  let h = period_hint /. float_of_int transient_steps_per_cycle in
  let t_end = period_hint *. float_of_int (warmup_cycles + 4) in
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

let polish dae ~n1 { period; t_start; window } =
  if n1 mod 2 = 0 then invalid_arg "Oscillator.polish: n1 must be odd";
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
  solve dae ~n1 ~guess ~omega_guess:(1. /. period)

let find dae ~n1 ~period_hint x0 =
  Obs.Span.span
    ~attrs:[ ("n1", Obs.Span.Int n1); ("dim", Obs.Span.Int dae.Dae.dim) ]
    "oscillator.find"
  @@ fun () -> polish dae ~n1 (settle dae ~period_hint x0)

let component orbit i = Array.map (fun s -> s.(i)) orbit.grid

let amplitude orbit ~component:i =
  let samples = component orbit i in
  let hi = Array.fold_left Float.max neg_infinity samples in
  let lo = Array.fold_left Float.min infinity samples in
  (hi -. lo) /. 2.
