(* VCO-A: the paper's first experiment (Section 5, Figs. 7-9).

   A lightly damped MEMS varactor is pumped at its mechanical resonance
   by a control voltage whose period is ~30 nominal oscillation periods.
   The WaMPDE envelope run produces:
     - fig 7: the local frequency vs slow time (swings by a factor ~3),
     - fig 8: the bivariate capacitor-voltage waveform (amplitude and
       shape modulation),
     - fig 9: the recovered 1-D waveform vs brute-force transient
       simulation (visually indistinguishable).

   Run with: dune exec examples/vco_fm.exe            (summary tables)
             dune exec examples/vco_fm.exe -- --csv   (full CSV series) *)

let csv = Array.exists (( = ) "--csv") Sys.argv

let () =
  let params = Circuit.Vco.vco_a () in
  let vco = Circuit.Vco.build params in
  let frozen = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
  let orbit =
    Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1:25 ~period_hint:(1. /. 0.75)
      (Circuit.Vco.initial_state frozen)
  in
  let options = Wampde.Envelope.default_options ~n1:25 () in
  let result = Wampde.Envelope.simulate vco ~options ~t2_end:60. ~h2:0.4 ~init:orbit in
  let om = result.Wampde.Envelope.omega in
  let omin = Array.fold_left Float.min infinity om in
  let omax = Array.fold_left Float.max neg_infinity om in

  (* --- fig 7: local frequency vs time --- *)
  Printf.printf "# fig7: VCO-A local frequency (MHz) vs slow time (us)\n";
  if csv then
    Array.iteri (fun i t2 -> Printf.printf "%g,%g\n" t2 om.(i)) result.Wampde.Envelope.t2
  else begin
    Array.iteri
      (fun i t2 -> if i mod 15 = 0 then Printf.printf "  t2 = %5.1f  f = %.4f\n" t2 om.(i))
      result.Wampde.Envelope.t2;
    Printf.printf "  frequency range [%.4f, %.4f] MHz -> modulation factor %.2f\n\n" omin omax
      (omax /. omin)
  end;

  (* --- fig 8: bivariate capacitor voltage --- *)
  Printf.printf "# fig8: bivariate voltage v(t1, t2); t1 in cycles, t2 in us\n";
  let n1 = 25 in
  let m = Array.length result.Wampde.Envelope.t2 in
  if csv then
    for idx = 0 to m - 1 do
      if idx mod 5 = 0 then begin
        let s = Wampde.Envelope.slice result ~index:idx ~component:Circuit.Vco.idx_voltage in
        for j = 0 to n1 - 1 do
          Printf.printf "%g,%g,%g\n"
            (float_of_int j /. float_of_int n1)
            result.Wampde.Envelope.t2.(idx) s.(j)
        done
      end
    done
  else begin
    let amp = Wampde.Envelope.amplitude_track result ~component:Circuit.Vco.idx_voltage in
    Printf.printf "  amplitude modulation: %.3f .. %.3f V (shape changes with t2)\n\n"
      (Array.fold_left Float.min infinity amp)
      (Array.fold_left Float.max neg_infinity amp)
  end;

  (* --- fig 9: WaMPDE vs transient simulation --- *)
  Printf.printf "# fig9: recovered 1-D waveform vs transient simulation\n";
  let x0 = Array.init vco.Dae.dim (fun i -> orbit.Steady.Oscillator.grid.(0).(i)) in
  let traj =
    Transient.integrate vco ~method_:Transient.Trapezoidal ~t0:0. ~t1:60. ~h:(1.333 /. 1000.)
      x0
  in
  let w = Wampde.Envelope.warping result in
  let worst = ref 0. in
  let probe = if csv then 6000 else 600 in
  for k = 0 to probe do
    let t = 60. *. float_of_int k /. float_of_int probe in
    let vw = Sigproc.Warp.eval w ~component:Circuit.Vco.idx_voltage t in
    let vt = Transient.interpolate traj Circuit.Vco.idx_voltage t in
    if csv then Printf.printf "%g,%g,%g\n" t vw vt;
    worst := Float.max !worst (Float.abs (vw -. vt))
  done;
  if not csv then begin
    Printf.printf "  max |v_wampde - v_transient| over 60 us (45 cycles): %.4f V\n" !worst;
    Printf.printf "  (waveform amplitude ~2.2 V: the curves are indistinguishable)\n"
  end
