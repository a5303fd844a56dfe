(* VCO-B: the paper's modified experiment (Section 5, Figs. 10-12).

   The varactor cavity is air-filled (heavy damping) and the control
   voltage period is 1 ms -- about 1000 nominal oscillation periods.
   This is the regime where brute-force transient simulation
   accumulates phase error unless it takes ~1000 points per cycle,
   while the WaMPDE's phase condition prevents any build-up:

     - fig 10: local frequency with settling and a smaller swing,
     - fig 11: bivariate voltage with near-constant amplitude,
     - fig 12: phase error of transient at 50 / 100 points per cycle
       against the WaMPDE solution.

   Run with: dune exec examples/mems_vco_slow.exe
   (add -- --full to integrate the full 3 ms reference; default uses
   a 300 us window to keep the example fast) *)

let full = Array.exists (( = ) "--full") Sys.argv

let () =
  let t_end = if full then 3000. else 300. in
  let params = Circuit.Vco.vco_b () in
  let vco = Circuit.Vco.build params in
  let frozen =
    Circuit.Vco.default_params ~damping:1.57 ~force0:4.0e-3 ~control:(fun _ -> 1.5) ()
  in
  let orbit =
    Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1:25 ~period_hint:(1. /. 0.75)
      (Circuit.Vco.initial_state frozen)
  in
  let options = Wampde.Envelope.default_options ~n1:25 () in
  let result = Wampde.Envelope.simulate vco ~options ~t2_end:t_end ~h2:2. ~init:orbit in

  (* --- fig 10: frequency settling --- *)
  Printf.printf "# fig10: VCO-B local frequency (MHz) vs time (us); note settling\n";
  let om = result.Wampde.Envelope.omega in
  Array.iteri
    (fun i t2 ->
      if i mod (Array.length om / 15) = 0 then
        Printf.printf "  t2 = %7.1f  f = %.4f\n" t2 om.(i))
    result.Wampde.Envelope.t2;
  Printf.printf "  range [%.4f, %.4f] MHz (smaller swing than VCO-A)\n\n"
    (Array.fold_left Float.min infinity om)
    (Array.fold_left Float.max neg_infinity om);

  (* --- fig 11: near-constant amplitude --- *)
  let amp = Wampde.Envelope.amplitude_track result ~component:Circuit.Vco.idx_voltage in
  Printf.printf "# fig11: bivariate voltage amplitude: %.4f .. %.4f V (nearly constant)\n\n"
    (Array.fold_left Float.min infinity amp)
    (Array.fold_left Float.max neg_infinity amp);

  (* --- fig 12: phase error of coarse transient runs --- *)
  Printf.printf "# fig12: phase error (cycles) of transient at N pts/cycle vs WaMPDE\n";
  let x0 = Array.init vco.Dae.dim (fun i -> orbit.Steady.Oscillator.grid.(0).(i)) in
  let reference_times = Array.init 20_001 (fun i -> t_end *. float_of_int i /. 20_000.) in
  let v_wampde =
    Array.map
      (Sigproc.Warp.eval (Wampde.Envelope.warping result) ~component:Circuit.Vco.idx_voltage)
      reference_times
  in
  let phase_error_for pts_per_cycle =
    let h = 1.333 /. float_of_int pts_per_cycle in
    let traj = Transient.integrate vco ~method_:Transient.Trapezoidal ~t0:0. ~t1:t_end ~h x0 in
    let v_tr =
      Array.map (fun t -> Transient.interpolate traj Circuit.Vco.idx_voltage t) reference_times
    in
    Sigproc.Zero_crossing.max_abs_phase_error
      ~reference:(reference_times, v_wampde)
      ~test:(reference_times, v_tr)
  in
  List.iter
    (fun pts ->
      Printf.printf "  transient %4d pts/cycle: max phase error %.3f cycles over %.0f us\n"
        pts (phase_error_for pts) t_end)
    [ 50; 100; 1000 ];
  Printf.printf
    "\n  the WaMPDE phase condition prevents error build-up; transient needs\n\
    \  ~1000 pts/cycle to stay comparable (the paper's two-orders-of-magnitude\n\
    \  speed advantage; perfbench's vcob-speedup workload times it)\n"
