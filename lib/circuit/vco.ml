type params = { l : float; g1 : float; g3 : float; varactor : Mna.varactor_params }

let two_pi = 2. *. Float.pi

(* Nominal design (scaled units): c0 = 1 nF at 1 µm gap, l = 0.045 mH
   -> f0 = 1 / (2 pi sqrt(l c0)) = 0.75 MHz; g1 = 1 mS, g3 = g1/3 ->
   2 V limit cycle.  Mechanical resonance at the VCO-A control rate
   (period 40 µs). *)
let default_params ?(damping = 0.0785) ?(force_power = 0) ?(force0 = 4.3e-3)
    ?(stiffness = 0.0247) ~control () =
  let gap0 = 1. in
  (* choose the spring rest position so the gap sits at gap0 under the
     bias control voltage vc = 1.5 *)
  let bias_force =
    match force_power with
    | 0 -> force0 *. 1.5 *. 1.5
    | _ -> force0 *. 1.5 *. 1.5 /. (gap0 *. gap0)
  in
  let g_rest = gap0 +. (bias_force /. stiffness) in
  {
    l = 0.045;
    g1 = 1.0;
    g3 = 1.0 /. 3.;
    varactor =
      {
        Mna.c0 = 1.0;
        gap0;
        g_rest;
        mass = 1.0;
        damping;
        stiffness;
        force0;
        force_power;
        control;
      };
  }

let vco_a () =
  let period = 40. in
  let control t = 1.5 +. (0.75 *. sin (two_pi *. t /. period)) in
  default_params ~control ()

let vco_b () =
  let period = 1000. in
  let control t = 1.5 +. (0.8 *. sin (two_pi *. t /. period)) in
  default_params ~damping:1.57 ~force0:4.0e-3 ~control ()

let idx_voltage = 0
let idx_gap = 2

let build p =
  let net = Mna.create () in
  let tank = Mna.node net "tank" in
  Mna.add net (Mna.inductor ~label:"L1" ~l:p.l tank Mna.ground);
  Mna.add net (Mna.cubic_conductance ~label:"GN" ~g1:p.g1 ~g3:p.g3 tank Mna.ground);
  Mna.add net (Mna.mems_varactor ~label:"CV" ~params:p.varactor tank Mna.ground);
  Mna.compile net

let amplitude_estimate p = sqrt (4. *. p.g1 /. (3. *. p.g3))

let frequency_of_gap p gap =
  let c = p.varactor.Mna.c0 *. p.varactor.Mna.gap0 /. gap in
  1. /. (two_pi *. sqrt (p.l *. c))

let equilibrium_gap p vc =
  let va = p.varactor in
  match va.Mna.force_power with
  | 0 -> va.Mna.g_rest -. (va.Mna.force0 *. vc *. vc /. va.Mna.stiffness)
  | _ ->
    (* k (g - g_rest) + F0 vc^2 / g^2 = 0: smooth Newton from gap0 *)
    let f g = (va.Mna.stiffness *. (g -. va.Mna.g_rest)) +. (va.Mna.force0 *. vc *. vc /. (g *. g)) in
    let df g = va.Mna.stiffness -. (2. *. va.Mna.force0 *. vc *. vc /. (g *. g *. g)) in
    Nonlin.Newton.scalar ~tol:1e-13 f df va.Mna.gap0

let nominal_frequency p = frequency_of_gap p (equilibrium_gap p (p.varactor.Mna.control 0.))

let initial_state p =
  let gap = equilibrium_gap p (p.varactor.Mna.control 0.) in
  [| amplitude_estimate p; 0.; gap; 0. |]
