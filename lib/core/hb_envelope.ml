open Linalg
module Obs = Wampde_obs

type result = {
  t2 : Vec.t;
  omega : Vec.t;
  coeffs : Cx.Cvec.t array array;
  harmonics : int;
}

let two_pi = 2. *. Float.pi

let c_steps = Obs.Metrics.counter "hb_envelope.steps"

(* Real packing of one slow step's unknowns:
   y.((v * nn) + 0)        = X_0 (real)
   y.((v * nn) + 2i - 1)   = Re X_i   (i = 1..m)
   y.((v * nn) + 2i)       = Im X_i
   y.(n * nn)              = omega
   where nn = 2 m + 1. *)

let coeffs_of_packed ~n ~m y =
  let nn = (2 * m) + 1 in
  Array.init n (fun v ->
      let base = v * nn in
      Array.init nn (fun idx ->
          let i = idx - m in
          if i = 0 then Cx.cx y.(base) 0.
          else begin
            let a = abs i in
            let re = y.(base + (2 * a) - 1) and im = y.(base + (2 * a)) in
            if i > 0 then Cx.cx re im else Cx.cx re (-.im)
          end))

let pack_coeffs ~n ~m coeffs omega =
  let nn = (2 * m) + 1 in
  let y = Array.make ((n * nn) + 1) 0. in
  for v = 0 to n - 1 do
    let base = v * nn in
    y.(base) <- Cx.re coeffs.(v).(m);
    for i = 1 to m do
      y.(base + (2 * i) - 1) <- Cx.re coeffs.(v).(m + i);
      y.(base + (2 * i)) <- Cx.im coeffs.(v).(m + i)
    done
  done;
  y.(n * nn) <- omega;
  y

let synthesize ~n ~m coeffs =
  let nn = (2 * m) + 1 in
  Array.init nn (fun j ->
      Vec.init n (fun v ->
          Fourier.Series.eval coeffs.(v) ~period:1. (float_of_int j /. float_of_int nn)))

(* complex g_i = 2 pi j i omega Q_i + F_i, packed to real the same way
   as the unknowns *)
let eval_g dae ~n ~m ~t2 coeffs omega =
  let nn = (2 * m) + 1 in
  let states = synthesize ~n ~m coeffs in
  let qs = Array.map (fun _ -> Array.make n 0.) states in
  let fs = Array.map (fun _ -> Array.make n 0.) states in
  Array.iteri
    (fun j st -> dae.Dae.eval_into ~t:t2 st ~q:qs.(j) ~f:fs.(j) ~c:[||] ~g:[||])
    states;
  let g = Array.make (n * nn) 0. in
  for v = 0 to n - 1 do
    let q_coeffs = Fourier.Series.coeffs (Array.map (fun q -> q.(v)) qs) in
    let f_coeffs = Fourier.Series.coeffs (Array.map (fun f -> f.(v)) fs) in
    let base = v * nn in
    for i = 0 to m do
      let jw = Cx.cx 0. (two_pi *. float_of_int i *. omega) in
      let gi = Complex.add (Complex.mul jw q_coeffs.(m + i)) f_coeffs.(m + i) in
      if i = 0 then g.(base) <- Cx.re gi
      else begin
        g.(base + (2 * i) - 1) <- Cx.re gi;
        g.(base + (2 * i)) <- Cx.im gi
      end
    done
  done;
  g

(* q coefficients only, packed *)
let eval_q_packed dae ~n ~m coeffs =
  let nn = (2 * m) + 1 in
  let states = synthesize ~n ~m coeffs in
  let qs =
    Array.map
      (fun st ->
        let q = Array.make n 0. in
        dae.Dae.eval_into ~t:0. st ~q ~f:[||] ~c:[||] ~g:[||];
        q)
      states
  in
  let out = Array.make (n * nn) 0. in
  for v = 0 to n - 1 do
    let q_coeffs = Fourier.Series.coeffs (Array.map (fun q -> q.(v)) qs) in
    let base = v * nn in
    for i = 0 to m do
      if i = 0 then out.(base) <- Cx.re q_coeffs.(m)
      else begin
        out.(base + (2 * i) - 1) <- Cx.re q_coeffs.(m + i);
        out.(base + (2 * i)) <- Cx.im q_coeffs.(m + i)
      end
    done
  done;
  out

let simulate dae ~harmonics:m ?(phase_component = 0)
    ?(phase_harmonic = 1) ~t2_end ~h2 ~init () =
  let n = dae.Dae.dim in
  Obs.Span.span
    ~attrs:
      [
        ("harmonics", Obs.Span.Int m);
        ("dim", Obs.Span.Int n);
        ("t2", Obs.Span.Float t2_end);
      ]
    "hb_envelope.simulate"
  @@ fun () ->
  Obs.Scope.with_scope "hb_envelope" @@ fun () ->
  let nn = (2 * m) + 1 in
  if Array.length init.Steady.Oscillator.grid <> nn then
    invalid_arg "Hb_envelope.simulate: init grid must have 2 harmonics + 1 points";
  if phase_harmonic < 1 || phase_harmonic > m then
    invalid_arg "Hb_envelope.simulate: phase harmonic out of range";
  let theta = 0.5 in
  (* initial coefficients from the orbit's time-domain grid *)
  let coeffs0 =
    Array.init n (fun v ->
        Fourier.Series.coeffs
          (Array.map (fun s -> s.(v)) init.Steady.Oscillator.grid))
  in
  (* rotate the phase so Im X_phase = 0 initially: shift t1 by delta with
     X_i -> X_i e^{-2 pi j i delta} *)
  let x_l = coeffs0.(phase_component).(m + phase_harmonic) in
  let delta = Complex.arg x_l /. (two_pi *. float_of_int phase_harmonic) in
  let coeffs0 =
    Array.map
      (fun per_var ->
        Array.mapi
          (fun idx c ->
            let i = idx - m in
            Complex.mul c (Cx.cis (-.two_pi *. float_of_int i *. delta)))
          per_var)
      coeffs0
  in
  let phase_slot = (phase_component * nn) + (2 * phase_harmonic) in
  let omega0 = init.Steady.Oscillator.omega in
  let t2s = ref [ 0. ] and omegas = ref [ omega0 ] in
  let coeff_hist = ref [ Array.map Array.copy coeffs0 ] in
  let t2 = ref 0. in
  let coeffs = ref coeffs0 and omega = ref omega0 in
  let g = ref (eval_g dae ~n ~m ~t2:0. !coeffs !omega) in
  (* fixed-target march: the controller only handles Newton failures,
     halving the step and growing it back toward [h2] *)
  let ctrl =
    Step_control.create
      (Step_control.default_options ~h_min:(1e-9 *. h2) ~h_max:h2 ())
      ~h_init:h2
  in
  while !t2 < t2_end -. (1e-9 *. t2_end) do
    let h = Step_control.propose ctrl ~remaining:(t2_end -. !t2) in
    let t2_new = !t2 +. h in
    let q0 = eval_q_packed dae ~n ~m !coeffs in
    let g0 = !g in
    let residual y =
      let c = coeffs_of_packed ~n ~m y in
      let om = y.(n * nn) in
      let qy = eval_q_packed dae ~n ~m c in
      let gy = eval_g dae ~n ~m ~t2:t2_new c om in
      let res = Array.make ((n * nn) + 1) 0. in
      for idx = 0 to (n * nn) - 1 do
        res.(idx) <-
          qy.(idx) -. q0.(idx) +. (h *. theta *. gy.(idx))
          +. (h *. (1. -. theta) *. g0.(idx))
      done;
      (* phase condition: Im Xhat^k_l = 0 is just one unknown slot *)
      res.(n * nn) <- y.(phase_slot);
      res
    in
    let options =
      { Nonlin.Newton.default_options with max_iterations = 30; residual_tol = 1e-9 }
    in
    let y0 = pack_coeffs ~n ~m !coeffs !omega in
    (* dense FD-Jacobian Newton; hard steps get a trust-region pass
       before bouncing to the controller *)
    let report =
      (Nonlin.Polyalg.solve ~options ~label:"hb_envelope" ~residual y0).Nonlin.Polyalg.report
    in
    if not report.Nonlin.Newton.converged then
      ignore (Step_control.failure_retry ctrl ~t:!t2 ~h_used:h ~reason:"newton")
    else begin
      coeffs := coeffs_of_packed ~n ~m report.Nonlin.Newton.x;
      omega := report.Nonlin.Newton.x.(n * nn);
      g := eval_g dae ~n ~m ~t2:t2_new !coeffs !omega;
      Obs.Metrics.incr c_steps;
      Step_control.record_accept ctrl ~t:!t2 ~h_used:h;
      if Obs.Events.active () then
        Obs.Events.emit (Obs.Events.Phase_condition { omega = !omega; t2 = t2_new });
      (if Obs.enabled () then begin
         (* the coefficients are already spectral: analyse each
            component's centered vector directly, worst case over
            components *)
         let tol = (Obs.Health.thresholds ()).Obs.Health.spectral_tol in
         let needed = ref 0 and tail = ref 0. and avail = ref 0 in
         Array.iter
           (fun c ->
             let r = Fourier.Series.resolution_of_coeffs ~tol c in
             if r.Fourier.Series.needed > !needed then needed := r.Fourier.Series.needed;
             if r.Fourier.Series.tail > !tail then tail := r.Fourier.Series.tail;
             avail := r.Fourier.Series.available)
           !coeffs;
         Obs.Health.note_spectrum ~t:t2_new ~tail:!tail ~needed:!needed ~available:!avail ()
       end);
      t2 := t2_new;
      t2s := t2_new :: !t2s;
      omegas := !omega :: !omegas;
      coeff_hist := Array.map Array.copy !coeffs :: !coeff_hist
    end
  done;
  {
    t2 = Array.of_list (List.rev !t2s);
    omega = Array.of_list (List.rev !omegas);
    coeffs = Array.of_list (List.rev !coeff_hist);
    harmonics = m;
  }

let eval_coefficient result ~step ~component ~harmonic =
  result.coeffs.(step).(component).(result.harmonics + harmonic)
