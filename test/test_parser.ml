(* Tests for the SPICE-style netlist parser and the extended devices
   (controlled sources, MOSFET, junction capacitor, diode VCO). *)
open Circuit

let approx_tol tol = Alcotest.(check (float tol))

(* a parsed value, read back as the charge of a 1 V capacitor *)
let parse_value s = ((Mna.compile (Testkit.parse_deck ("C1 a 0 " ^ s))).Dae.q [| 1. |]).(0)

let value_tests =
  [
    Alcotest.test_case "suffix multipliers" `Quick (fun () ->
        approx_tol 1e-12 "k" 4700. (parse_value "4.7k");
        approx_tol 1e-18 "n" 1e-7 (parse_value "100n");
        approx_tol 1e-6 "meg" 2e6 (parse_value "2meg");
        approx_tol 1e-9 "m" 5e-3 (parse_value "5m");
        approx_tol 1e-21 "p" 3.3e-12 (parse_value "3.3p");
        approx_tol 1e-12 "plain" 42. (parse_value "42");
        approx_tol 1e-12 "exponent" 1500. (parse_value "1.5e3"));
    Alcotest.test_case "unit words tolerated" `Quick (fun () ->
        approx_tol 1e-9 "kohm" 10_000. (parse_value "10kohm");
        approx_tol 1e-18 "nF" 5e-9 (parse_value "5nf"));
    Alcotest.test_case "garbage rejected" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (parse_value "xyz");
             false
           with Parser.Parse_error _ -> true));
  ]

let deck_tests =
  [
    Alcotest.test_case "resistor divider deck" `Quick (fun () ->
        let net =
          Testkit.parse_deck
            "* divider\nV1 in 0 10\nR1 in mid 1k\nR2 mid 0 3k\n.end\n"
        in
        let dae = Mna.compile net in
        let report = Dae.dc_operating_point ~x0:(Mna.initial_guess net) dae in
        Alcotest.(check bool) "converged" true report.Nonlin.Newton.converged;
        (* node order: in = 1, mid = 2 *)
        approx_tol 1e-6 "v(mid)" 7.5 report.Nonlin.Newton.x.(1));
    Alcotest.test_case "sin source parses" `Quick (fun () ->
        let net = Testkit.parse_deck "V1 a 0 SIN(1.5 0.75 0.025)\nR1 a 0 1\n" in
        let dae = Mna.compile net in
        (* v(a) at t: the source forces through its branch equation *)
        let f0 = dae.Dae.f ~t:0. [| 1.5; 0. |] in
        approx_tol 1e-9 "branch eq at bias" 0. f0.(1);
        let t_quarter = 10. in
        let f1 = dae.Dae.f ~t:t_quarter [| 2.25; 0. |] in
        approx_tol 1e-9 "peak" 0. f1.(1));
    Alcotest.test_case "paper VCO deck equals Vco.build" `Quick (fun () ->
        (* LC tank + cubic conductance from a text deck; MEMS varactor is
           API-only, so compare against a fixed-capacitor variant *)
        let deck = "L1 tank 0 0.045\nN1 tank 0 1 0.3333333333333333\nC1 tank 0 1\n" in
        let dae = Mna.compile (Testkit.parse_deck deck) in
        let x = [| 1.3; -0.4 |] in
        approx_tol 1e-12 "q tank" 1.3 (dae.Dae.q x).(0);
        let f = dae.Dae.f ~t:0. x in
        (* tank KCL: i_L + (-g1 v + g3 v^3) *)
        approx_tol 1e-9 "kcl" ((-1.3) +. (1.3 ** 3. /. 3.) +. -0.4) f.(0));
    Alcotest.test_case "comments, blanks, .end respected" `Quick (fun () ->
        let net =
          Testkit.parse_deck
            "* header\n\n; another comment\nR1 a 0 1\n.end\nR2 a 0 garbage-after-end\n"
        in
        Alcotest.(check int) "one node" 1 (Mna.compile net).Dae.dim);
    Alcotest.test_case "parse error carries line number" `Quick (fun () ->
        Alcotest.(check bool) "raises with line" true
          (try
             ignore (Testkit.parse_deck "R1 a 0 1\nbogus line here\n");
             false
           with Parser.Parse_error { line; _ } -> line = 2));
    Alcotest.test_case "rejected device parameters are line-numbered parse errors" `Quick
      (fun () ->
        (* the constructors raise Invalid_argument; the parser must not
           let it escape *)
        let line_of deck =
          match Testkit.parse_deck deck with
          | _ -> Alcotest.failf "expected Parse_error for %S" deck
          | exception Parser.Parse_error { line; _ } -> line
        in
        Alcotest.(check int) "r = 0" 2 (line_of "V1 a 0 1\nR1 a 0 0\n");
        Alcotest.(check int) "diode vt = 0" 3 (line_of "V1 a 0 1\nR1 a b 1\nD1 b 0 vt=0\n");
        Alcotest.(check int) "junction m = 1" 2 (line_of "R1 b 0 1\nC1 b 0 junction m=1\n");
        Alcotest.(check int) "junction vj < 0" 1 (line_of "C1 b 0 junction vj=-0.7\n");
        Alcotest.(check int) "junction fc = 1" 1 (line_of "C1 b 0 junction fc=1\n"));
    Alcotest.test_case "vccs deck: transconductance amplifier" `Quick (fun () ->
        let net = Testkit.parse_deck "V1 in 0 2\nG1 0 out in 0 0.5\nR1 out 0 4\n" in
        let dae = Mna.compile net in
        let report = Dae.dc_operating_point ~x0:(Mna.initial_guess net) dae in
        Alcotest.(check bool) "converged" true report.Nonlin.Newton.converged;
        (* i = gm v_in = 1 pushed from ground INTO out -> v(out) = i R = 4 *)
        approx_tol 1e-6 "v(out)" 4. report.Nonlin.Newton.x.(1));
  ]

let device_tests =
  [
    Alcotest.test_case "vcvs enforces gain" `Quick (fun () ->
        let net = Mna.create () in
        let a = Mna.node net "a" and b = Mna.node net "b" in
        Mna.add net (Mna.vsource ~label:"V1" ~v:(fun _ -> 3.) a Mna.ground);
        Mna.add net (Mna.vcvs ~label:"E1" ~gain:2.5 a Mna.ground b Mna.ground);
        Mna.add net (Mna.resistor ~label:"R1" ~r:1. b Mna.ground);
        let dae = Mna.compile net in
        let report = Dae.dc_operating_point ~x0:(Mna.initial_guess net) dae in
        approx_tol 1e-8 "v(b)" 7.5 report.Nonlin.Newton.x.(b - 1));
    Alcotest.test_case "mosfet saturation current" `Quick (fun () ->
        (* vgs = 1.6, vt = 0.6, k = 2: saturation id = 0.5 k vov^2 = 1 *)
        let net = Mna.create () in
        let d = Mna.node net "d" and g = Mna.node net "g" in
        Mna.add net (Mna.vsource ~label:"VG" ~v:(fun _ -> 1.6) g Mna.ground);
        Mna.add net (Mna.vsource ~label:"VD" ~v:(fun _ -> 5.) d Mna.ground);
        Mna.add net (Mna.mosfet ~label:"M1" ~k:2. ~vt:0.6 ~drain:d ~gate:g ~source:Mna.ground ());
        let dae = Mna.compile net in
        (* drain KCL row: mosfet current + VD branch current = 0 *)
        let x = [| 5.; 1.6; 0.; -1. |] in
        let f = dae.Dae.f ~t:0. x in
        approx_tol 1e-9 "drain kcl balanced" 0. f.(0));
    Alcotest.test_case "mosfet cutoff and triode regions" `Quick (fun () ->
        let net = Mna.create () in
        let d = Mna.node net "d" and g = Mna.node net "g" in
        Mna.add net (Mna.mosfet ~label:"M1" ~k:2. ~vt:0.6 ~drain:d ~gate:g ~source:Mna.ground ());
        let dae = Mna.compile net in
        (* cutoff: vgs < vt -> no current *)
        approx_tol 1e-12 "cutoff" 0. (dae.Dae.f ~t:0. [| 5.; 0.2 |]).(0);
        (* triode: vds = 0.2 < vov = 1: id = k (vov vds - vds^2/2) *)
        let id = (dae.Dae.f ~t:0. [| 0.2; 1.6 |]).(0) in
        approx_tol 1e-9 "triode" (2. *. ((1. *. 0.2) -. (0.5 *. 0.2 *. 0.2))) id);
    Alcotest.test_case "mosfet is symmetric in drain/source" `Quick (fun () ->
        let net = Mna.create () in
        let d = Mna.node net "d" and g = Mna.node net "g" in
        Mna.add net (Mna.mosfet ~label:"M1" ~k:1. ~vt:0.5 ~drain:d ~gate:g ~source:Mna.ground ());
        let dae = Mna.compile net in
        (* swap roles: vd < 0 *)
        let i_fwd = (dae.Dae.f ~t:0. [| 0.3; 1.5 |]).(0) in
        let net2 = Mna.create () in
        let d2 = Mna.node net2 "d" and g2 = Mna.node net2 "g" in
        Mna.add net2
          (Mna.mosfet ~label:"M1" ~k:1. ~vt:0.5 ~drain:d2 ~gate:g2 ~source:Mna.ground ());
        let dae2 = Mna.compile net2 in
        (* with vd = -0.3 the intrinsic source is the d node; the current
           through the drain terminal reverses and has vgs measured from
           the true source: use a plain sanity check of sign *)
        let i_rev = (dae2.Dae.f ~t:0. [| -0.3; 1.5 |]).(0) in
        Alcotest.(check bool) "sign flips" true (i_fwd > 0. && i_rev < 0.));
    Alcotest.test_case "junction capacitor matches closed forms" `Quick (fun () ->
        let net = Mna.create () in
        let a = Mna.node net "a" in
        Mna.add net (Mna.junction_capacitor ~label:"CJ" ~c0:2. ~vj:0.7 ~m:0.5 a Mna.ground);
        Mna.add net (Mna.resistor ~label:"R" ~r:1. a Mna.ground);
        let dae = Mna.compile net in
        (* reverse bias v = -3: C = c0 / (1 + 3/0.7)^0.5 *)
        let c_expected = 2. /. ((1. +. (3. /. 0.7)) ** 0.5) in
        approx_tol 1e-9 "C(-3)" c_expected (dae.Dae.dq [| -3. |]).(0).(0);
        (* dq/dv continuity across the fc vj boundary *)
        let below = (dae.Dae.dq [| 0.349 |]).(0).(0) in
        let above = (dae.Dae.dq [| 0.351 |]).(0).(0) in
        Alcotest.(check bool) "continuous" true (Float.abs (below -. above) < 0.05));
    Alcotest.test_case "junction charge is the integral of C" `Quick (fun () ->
        let net = Mna.create () in
        let a = Mna.node net "a" in
        Mna.add net (Mna.junction_capacitor ~label:"CJ" ~c0:1.5 ~vj:0.8 ~m:0.4 a Mna.ground);
        Mna.add net (Mna.resistor ~label:"R" ~r:1. a Mna.ground);
        let dae = Mna.compile net in
        (* numerical integral of C from 0 to -2 vs q(-2) - q(0) *)
        let steps = 2000 in
        let integral = ref 0. in
        for i = 0 to steps - 1 do
          let v = -2. *. (float_of_int i +. 0.5) /. float_of_int steps in
          integral := !integral +. ((dae.Dae.dq [| v |]).(0).(0) *. -2. /. float_of_int steps)
        done;
        let dq = (dae.Dae.q [| -2. |]).(0) -. (dae.Dae.q [| 0. |]).(0) in
        approx_tol 1e-4 "q = int C dv" !integral dq);
  ]

let diode_vco_tests =
  [
    Alcotest.test_case "tuning law is monotone increasing in bias" `Quick (fun () ->
        let p = Diode_vco.default_params ~control:(fun _ -> 3.) () in
        let f3 = Diode_vco.tuning_frequency p ~bias:3. in
        let f6 = Diode_vco.tuning_frequency p ~bias:6. in
        Alcotest.(check bool) "monotone" true (f6 > f3));
    Alcotest.test_case "unforced orbit near the small-signal law" `Slow (fun () ->
        let p = Diode_vco.default_params ~control:(fun _ -> 3.) () in
        let dae = Diode_vco.build p in
        let orbit =
          Steady.Oscillator.find dae ~n1:31 ~period_hint:1.0 (Diode_vco.initial_state p ~at:0.)
        in
        let law = Diode_vco.tuning_frequency p ~bias:3. in
        Alcotest.(check bool) "within 2%" true
          (Float.abs (orbit.Steady.Oscillator.omega -. law) /. law < 0.02));
    Alcotest.test_case "wampde tracks the tuning law over a sweep" `Slow (fun () ->
        let frozen = Diode_vco.default_params ~control:(fun _ -> 3.) () in
        let orbit =
          Steady.Oscillator.find (Diode_vco.build frozen) ~n1:31 ~period_hint:1.0
            (Diode_vco.initial_state frozen ~at:0.)
        in
        let control t = 3. +. (2.5 *. (1. -. cos (2. *. Float.pi *. t /. 200.))) in
        let p = Diode_vco.default_params ~control () in
        let dae = Diode_vco.build p in
        let options = Wampde.Envelope.default_options ~n1:31 () in
        let res = Wampde.Envelope.simulate dae ~options ~t2_end:200. ~h2:1. ~init:orbit in
        Array.iteri
          (fun i t2 ->
            if i mod 25 = 0 then begin
              let law = Diode_vco.tuning_frequency p ~bias:(control t2) in
              let rel = Float.abs (res.Wampde.Envelope.omega.(i) -. law) /. law in
              Alcotest.(check bool) "quasi-static" true (rel < 0.02)
            end)
          res.Wampde.Envelope.t2);
  ]

(* Generative tests over random passive networks. *)
let random_network_tests =
  let open QCheck in
  (* an RC ladder of depth d with random positive element values and a DC
     source at the head *)
  let ladder_gen =
    Gen.(
      tup3 (int_range 1 6)
        (array_size (return 6) (float_range 0.1 10.))
        (float_range (-10.) 10.))
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"random RC ladder: DC op converges, voltages bounded by source"
         ~count:40 (make ladder_gen)
         (fun (depth, values, vs) ->
           let net = Mna.create () in
           let head = Mna.node net "n0" in
           Mna.add net (Mna.vsource ~label:"V" ~v:(fun _ -> vs) head Mna.ground);
           for k = 1 to depth do
             let a = Mna.node net (Printf.sprintf "n%d" (k - 1)) in
             let b = Mna.node net (Printf.sprintf "n%d" k) in
             Mna.add net
               (Mna.resistor ~label:(Printf.sprintf "R%d" k) ~r:values.(k mod 6) a b);
             Mna.add net
               (Mna.capacitor ~label:(Printf.sprintf "C%d" k) ~c:values.((k + 1) mod 6) b
                  Mna.ground);
             (* shunt resistor keeps the DC problem well-posed *)
             Mna.add net
               (Mna.resistor ~label:(Printf.sprintf "Rs%d" k) ~r:(10. *. values.(k mod 6)) b
                  Mna.ground)
           done;
           let dae = Mna.compile net in
           let report = Dae.dc_operating_point ~x0:(Mna.initial_guess net) dae in
           report.Nonlin.Newton.converged
           &&
           (* all node voltages lie between 0 and the source voltage *)
           let ok = ref true in
           for k = 0 to depth do
             let v = report.Nonlin.Newton.x.(k) in
             let lo = Float.min 0. vs -. 1e-9 and hi = Float.max 0. vs +. 1e-9 in
             if v < lo || v > hi then ok := false
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"random ladder transient decays to DC op from any start" ~count:15
         (make ladder_gen)
         (fun (depth, values, vs) ->
           let net = Mna.create () in
           let head = Mna.node net "n0" in
           Mna.add net (Mna.vsource ~label:"V" ~v:(fun _ -> vs) head Mna.ground);
           for k = 1 to depth do
             let a = Mna.node net (Printf.sprintf "n%d" (k - 1)) in
             let b = Mna.node net (Printf.sprintf "n%d" k) in
             Mna.add net
               (Mna.resistor ~label:(Printf.sprintf "R%d" k) ~r:values.(k mod 6) a b);
             Mna.add net
               (Mna.capacitor ~label:(Printf.sprintf "C%d" k) ~c:values.((k + 1) mod 6) b
                  Mna.ground)
           done;
           let dae = Mna.compile net in
           let dc = Dae.dc_operating_point ~x0:(Mna.initial_guess net) dae in
           if not dc.Nonlin.Newton.converged then false
           else begin
             (* start everything at zero; after many time constants the
                trajectory must reach the DC solution *)
             let tau_max = 6. *. 10. *. 10. *. float_of_int depth in
             let traj =
               Transient.integrate dae ~method_:Transient.Backward_euler ~t0:0.
                 ~t1:(8. *. tau_max) ~h:(tau_max /. 50.)
                 (Mna.initial_guess net)
             in
             let final = Transient.final traj in
             let ok = ref true in
             for k = 0 to depth do
               if Float.abs (final.(k) -. dc.Nonlin.Newton.x.(k)) > 1e-3 *. (1. +. Float.abs vs)
               then ok := false
             done;
             !ok
           end));
  ]

let suites =
  [
    ("parser.values", value_tests);
    ("parser.decks", deck_tests);
    ("circuit.devices2", device_tests);
    ("circuit.diode_vco", diode_vco_tests);
    ("circuit.random_networks", random_network_tests);
  ]
