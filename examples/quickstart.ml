(* Quickstart: simulate a voltage-controlled oscillator with the WaMPDE.

   Pipeline:
     1. build the paper's VCO circuit (LC tank + cubic negative resistor
        + MEMS varactor) from the netlist API;
     2. compute the unforced periodic steady state (frequency unknown);
     3. follow the forced envelope with the WaMPDE, getting the local
        frequency omega(t2) explicitly;
     4. recover the ordinary 1-D waveform along the warped path.

   Run with: dune exec examples/quickstart.exe *)

let () =
  (* 1. the circuit: control voltage = 1.5 V bias + slow sinusoid *)
  let control t = 1.5 +. (0.75 *. sin (2. *. Float.pi *. t /. 40.)) in
  let params = Circuit.Vco.default_params ~control () in
  let vco = Circuit.Vco.build params in
  Printf.printf "VCO state variables:";
  Array.iter (Printf.printf " %s") vco.Dae.var_names;
  Printf.printf "\nnominal frequency: %.4f MHz\n\n" (Circuit.Vco.nominal_frequency params);

  (* 2. unforced steady state: freeze the control at its t = 0 value *)
  let frozen = Circuit.Vco.default_params ~control:(fun _ -> control 0.) () in
  let unforced = Circuit.Vco.build frozen in
  let orbit =
    Steady.Oscillator.find unforced ~n1:25 ~period_hint:(1. /. 0.75)
      (Circuit.Vco.initial_state frozen)
  in
  Printf.printf "unforced limit cycle: f = %.5f MHz, amplitude = %.3f V\n\n"
    orbit.Steady.Oscillator.omega
    (Steady.Oscillator.amplitude orbit ~component:Circuit.Vco.idx_voltage);

  (* 3. WaMPDE envelope over one forcing period (40 us) *)
  let options = Wampde.Envelope.default_options ~n1:25 () in
  let result = Wampde.Envelope.simulate vco ~options ~t2_end:40. ~h2:0.4 ~init:orbit in
  Printf.printf "WaMPDE envelope: %d slow steps, %d Newton iterations\n"
    (Array.length result.Wampde.Envelope.t2 - 1)
    result.Wampde.Envelope.newton_iterations;
  Printf.printf "\n  t2 (us)   omega (MHz)   amplitude (V)\n";
  let amp = Wampde.Envelope.amplitude_track result ~component:Circuit.Vco.idx_voltage in
  Array.iteri
    (fun i t2 ->
      if i mod 10 = 0 then
        Printf.printf "  %7.2f   %9.4f     %9.4f\n" t2 result.Wampde.Envelope.omega.(i) amp.(i))
    result.Wampde.Envelope.t2;

  (* 4. recover the 1-D waveform at a few times, from one recovery value *)
  let w = Wampde.Envelope.warping result in
  Printf.printf "\n  t (us)    v(t) recovered from the bivariate form\n";
  List.iter
    (fun t ->
      Printf.printf "  %6.2f    %+.4f V\n" t
        (Sigproc.Warp.eval w ~component:Circuit.Vco.idx_voltage t))
    [ 0.; 5.; 10.; 20.; 39.9 ];
  Printf.printf "\ntotal oscillation cycles in 40 us: %.2f (phi(40))\n" (Sigproc.Warp.phi w 40.)
