type params = {
  l : float;
  g1 : float;
  g3 : float;
  c0 : float;
  vj : float;
  m : float;
  control : float -> float;
}

let default_params ~control () =
  { l = 0.02; g1 = 1.0; g3 = 1. /. 3.; c0 = 3.0; vj = 0.7; m = 0.5; control }

let build p =
  let net = Mna.create () in
  let tank = Mna.node net "tank" in
  let ctrl = Mna.node net "ctrl" in
  Mna.add net (Mna.inductor ~label:"L1" ~l:p.l tank Mna.ground);
  Mna.add net (Mna.cubic_conductance ~label:"GN" ~g1:p.g1 ~g3:p.g3 tank Mna.ground);
  (* varactor cathode at the control node: reverse bias = v_ctrl - v_tank,
     so the junction sees v = v_tank - v_ctrl < 0 when reverse biased *)
  Mna.add net (Mna.junction_capacitor ~label:"CV" ~c0:p.c0 ~vj:p.vj ~m:p.m tank ctrl);
  Mna.add net (Mna.vsource ~label:"VC" ~v:p.control ctrl Mna.ground);
  Mna.compile net

let amplitude_estimate p = sqrt (4. *. p.g1 /. (3. *. p.g3))

let initial_state p ~at =
  let vc = p.control at in
  [| amplitude_estimate p; vc; 0.; 0. |]

let capacitance p ~bias = p.c0 /. ((1. +. (bias /. p.vj)) ** p.m)

let tuning_frequency p ~bias =
  1. /. (2. *. Float.pi *. sqrt (p.l *. capacitance p ~bias))
