(* Tests for the MNA substrate and the VCO circuit models. *)
open Testkit
open Circuit

let approx_tol tol = Alcotest.(check (float tol))

(* RC low-pass driven by a DC source: analytic charging curve. *)
let rc_lowpass ~r ~c ~vs =
  let net = Mna.create () in
  let nin = Mna.node net "in" and nout = Mna.node net "out" in
  Mna.add net (Mna.vsource ~label:"V1" ~v:(fun _ -> vs) nin Mna.ground);
  Mna.add net (Mna.resistor ~label:"R1" ~r nin nout);
  Mna.add net (Mna.capacitor ~label:"C1" ~c nout Mna.ground);
  (net, nin, nout)

let mna_tests =
  [
    Alcotest.test_case "node ids and ground aliases" `Quick (fun () ->
        let net = Mna.create () in
        Alcotest.(check int) "gnd" 0 (Mna.node net "gnd");
        Alcotest.(check int) "0" 0 (Mna.node net "0");
        Alcotest.(check int) "GROUND" 0 (Mna.node net "GROUND");
        let a = Mna.node net "a" in
        Alcotest.(check int) "a twice" a (Mna.node net "a");
        Alcotest.(check int) "count" 1 (Mna.compile net).Dae.dim);
    Alcotest.test_case "resistor divider dc" `Quick (fun () ->
        let net = Mna.create () in
        let nin = Mna.node net "in" and mid = Mna.node net "mid" in
        Mna.add net (Mna.vsource ~label:"V" ~v:(fun _ -> 10.) nin Mna.ground);
        Mna.add net (Mna.resistor ~label:"R1" ~r:1. nin mid);
        Mna.add net (Mna.resistor ~label:"R2" ~r:3. mid Mna.ground);
        let dae = Mna.compile net in
        let report = Dae.dc_operating_point ~x0:(Mna.initial_guess net) dae in
        Alcotest.(check bool) "converged" true report.Nonlin.Newton.converged;
        let x = report.Nonlin.Newton.x in
        approx_tol 1e-9 "v(in)" 10. x.(nin - 1);
        approx_tol 1e-9 "v(mid)" 7.5 x.(mid - 1));
    Alcotest.test_case "rc charging curve" `Quick (fun () ->
        let r = 2. and c = 0.5 and vs = 5. in
        let net, _, nout = rc_lowpass ~r ~c ~vs in
        let dae = Mna.compile net in
        let traj =
          Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:3. ~h:0.002
            (Mna.initial_guess net)
        in
        let tau = r *. c in
        let v_expected = vs *. (1. -. exp (-3. /. tau)) in
        approx_tol 1e-3 "v(out)(3)" v_expected (Transient.interpolate traj (nout - 1) 3.));
    Alcotest.test_case "analytic jacobians match finite differences" `Quick (fun () ->
        let p = Vco.vco_a () in
        let dae = Vco.build p in
        let x = [| 1.3; -0.2; 0.9; 0.1 |] in
        let fd_dq = Nonlin.Fdjac.jacobian_central dae.Dae.q x in
        let fd_df = Nonlin.Fdjac.jacobian_central (fun y -> dae.Dae.f ~t:7. y) x in
        Alcotest.(check bool) "dq" true (Mat.approx_equal ~tol:1e-5 (dae.Dae.dq x) fd_dq);
        Alcotest.(check bool) "df" true
          (Mat.approx_equal ~tol:1e-5 (dae.Dae.df ~t:7. x) fd_df));
    Alcotest.test_case "kcl: total device current at a 3-way node sums to zero" `Quick
      (fun () ->
        (* current divider: source pushes 2 into node with two resistors *)
        let net = Mna.create () in
        let a = Mna.node net "a" in
        Mna.add net (Mna.isource ~label:"I" ~i:(fun _ -> 2.) Mna.ground a);
        Mna.add net (Mna.resistor ~label:"Ra" ~r:1. a Mna.ground);
        Mna.add net (Mna.resistor ~label:"Rb" ~r:1. a Mna.ground);
        let dae = Mna.compile net in
        let report = Dae.dc_operating_point dae in
        approx_tol 1e-10 "v(a)" 1. report.Nonlin.Newton.x.(a - 1));
    Alcotest.test_case "diode rectifies" `Quick (fun () ->
        let net = Mna.create () in
        let nin = Mna.node net "in" and nout = Mna.node net "out" in
        Mna.add net (Mna.vsource ~label:"V" ~v:(fun _ -> 0.8) nin Mna.ground);
        Mna.add net (Mna.diode ~label:"D" nin nout);
        Mna.add net (Mna.resistor ~label:"R" ~r:1. nout Mna.ground);
        let dae = Mna.compile net in
        let report = Dae.dc_operating_point ~x0:[| 0.8; 0.5; 0. |] dae in
        Alcotest.(check bool) "converged" true report.Nonlin.Newton.converged;
        let vout = report.Nonlin.Newton.x.(nout - 1) in
        Alcotest.(check bool) "forward drop ~0.5-0.7" true (vout > 0.05 && vout < 0.75));
    Alcotest.test_case "inductor branch equation" `Quick (fun () ->
        (* V source across L: i(t) = (V/L) t *)
        let net = Mna.create () in
        let a = Mna.node net "a" in
        Mna.add net (Mna.vsource ~label:"V" ~v:(fun _ -> 2.) a Mna.ground);
        Mna.add net (Mna.inductor ~label:"L" ~l:0.5 a Mna.ground);
        let dae = Mna.compile net in
        let traj =
          Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:1. ~h:0.001
            (Mna.initial_guess net)
        in
        (* x layout: v(a), V.i, L.i *)
        approx_tol 1e-6 "i_L(1) = V t / L" 4. (Transient.interpolate traj 2 1.));
    Alcotest.test_case "nonlinear capacitor stores q(v)" `Quick (fun () ->
        (* junction capacitance c0 / sqrt (1 - v/vj) below fc vj: charge
           2 c0 vj (1 - sqrt (1 - v/vj)) *)
        let net = Mna.create () in
        let a = Mna.node net "a" in
        Mna.add net (Mna.junction_capacitor ~label:"C" ~c0:1. ~vj:1. ~m:0.5 ~fc:0.9 a Mna.ground);
        Mna.add net (Mna.resistor ~label:"R" ~r:1. a Mna.ground);
        let dae = Mna.compile net in
        approx_tol 1e-12 "q at v=0.5" (2. *. (1. -. sqrt 0.5)) (dae.Dae.q [| 0.5 |]).(0);
        approx_tol 1e-12 "dq at v=0.5" (1. /. sqrt 0.5) (dae.Dae.dq [| 0.5 |]).(0).(0));
  ]

(* One netlist holding every device constructor, each on its own nodes,
   with node voltages [x_all] chosen to put every device in a known
   region away from its branch points. *)
let all_devices () =
  let net = Mna.create () in
  let volts = ref [] in
  let node name v =
    volts := v :: !volts;
    Mna.node net name
  in
  let a = node "a" 0.7 and b = node "b" (-0.3) and cn = node "c" 1.1 in
  let add = Mna.add net in
  add (Mna.resistor ~label:"R" ~r:2. a b);
  add (Mna.capacitor ~label:"C" ~c:0.5 a b);
  add (Mna.inductor ~label:"L" ~l:0.1 b cn);
  add (Mna.vsource ~label:"V" ~v:(fun t -> 0.5 +. sin t) a Mna.ground);
  add (Mna.isource ~label:"I" ~i:(fun t -> cos t) b Mna.ground);
  add (Mna.cubic_conductance ~label:"N" ~g1:1. ~g3:0.3 cn Mna.ground);
  (* exponential branch (0.5 < vmax = 4) and linear branch (5 > 4) *)
  add (Mna.diode ~label:"D1" ~is_:1e-3 ~vt:0.1 (node "d1" 0.5) Mna.ground);
  add (Mna.diode ~label:"D2" ~is_:1e-18 ~vt:0.1 (node "d2" 5.) Mna.ground);
  let varactor label force_power n =
    let p = Vco.default_params ~force_power ~control:(fun t -> 1.5 +. (0.5 *. sin t)) () in
    add (Mna.mems_varactor ~label ~params:p.Vco.varactor n Mna.ground)
  in
  varactor "CV0" 0 a;
  varactor "CV2" 2 cn;
  add (Mna.vccs ~label:"G" ~gm:0.4 a b cn (node "g" 0.2));
  add (Mna.vcvs ~label:"E" ~gain:2. cn b (node "e" (-0.6)) Mna.ground);
  (* vt = 0.6: cutoff (vgs 0.3), saturation (vov 0.8 <= vds 1.9),
     triode (vds 0.3 < vov 1.1), flipped triode (vd < vs: vds 0.7 < vov 0.8) *)
  let mosfet label vd vg vs =
    add
      (Mna.mosfet ~label ~vt:0.6
         ~drain:(node (label ^ "d") vd)
         ~gate:(node (label ^ "g") vg)
         ~source:(node (label ^ "s") vs)
         ())
  in
  mosfet "M1" 1. 0.3 0.;
  mosfet "M2" 2. 1.5 0.1;
  mosfet "M3" 0.4 1.8 0.1;
  mosfet "M4" 0.2 1.6 0.9;
  (* reverse bias (-1 <= fc vj = 0.35) and the linear extension (0.5 > 0.35) *)
  add (Mna.junction_capacitor ~label:"J1" (node "j1" (-1.)) Mna.ground);
  add (Mna.junction_capacitor ~label:"J2" (node "j2" 0.5) Mna.ground);
  add (Mna.multiplier ~label:"X" ~k:0.7 (a, b) (cn, Mna.ground) b (node "x" 0.4));
  let dae = Mna.compile net in
  let v = Array.of_list (List.rev !volts) in
  (* states: L, V and E currents, varactor gaps and velocities *)
  let x =
    Array.init dae.Dae.dim (fun k ->
        if k < Array.length v then v.(k) else 0.7 +. (0.05 *. float_of_int k))
  in
  (dae, x)

let bits a = Array.map Int64.bits_of_float a

(* every subset of eval_into's outputs, as (q, f, c, g) flags *)
let subsets = List.init 16 (fun m -> (m land 1 <> 0, m land 2 <> 0, m land 4 <> 0, m land 8 <> 0))

let buffers n (wq, wf, wc, wg) ~fill =
  let vec w = if w then Array.make n fill else [||] in
  let mat w = if w then Array.make_matrix n n fill else [||] in
  (vec wq, vec wf, mat wc, mat wg)

(* the bits of the four closures at (t, x), and of eval_into's
   requested outputs on NaN-filled buffers for each subset: each must
   overwrite its buffer with the matching closure's result ([||] for an
   output not requested) *)
let closure_bits dae (t, x) =
  (bits (dae.Dae.q x), bits (dae.Dae.f ~t x), Array.map bits (dae.Dae.dq x), Array.map bits (dae.Dae.df ~t x))

let eval_into_bits dae (t, x) subset =
  let q, f, c, g = buffers dae.Dae.dim subset ~fill:Float.nan in
  dae.Dae.eval_into ~t x ~q ~f ~c ~g;
  (bits q, bits f, Array.map bits c, Array.map bits g)

let requested (wq, wf, wc, wg) (q, f, c, g) =
  ((if wq then q else [||]), (if wf then f else [||]), (if wc then c else [||]), if wg then g else [||])

let words_per_call eval =
  ignore (Sys.opaque_identity (eval ()));
  let calls = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (eval ()))
  done;
  (Gc.minor_words () -. w0) /. float_of_int calls

let stamp_tests =
  [
    Alcotest.test_case "analytic stamps of every device match central differences" `Quick
      (fun () ->
        let dae, x = all_devices () in
        Alcotest.(check int) "dim" (Array.length dae.Dae.var_names) dae.Dae.dim;
        let t = 0.3 in
        let fd_dq = Nonlin.Fdjac.jacobian_central dae.Dae.q x in
        let fd_df = Nonlin.Fdjac.jacobian_central (fun y -> dae.Dae.f ~t y) x in
        let check name analytic fd =
          Array.iteri
            (fun i row ->
              Array.iteri
                (fun j d ->
                  if Float.abs (d -. fd.(i).(j)) > 1e-6 *. (1. +. Float.abs d) then
                    Alcotest.failf "%s (%s, %s): analytic %g, fd %g" name
                      dae.Dae.var_names.(i) dae.Dae.var_names.(j) d fd.(i).(j))
                row)
            analytic
        in
        check "dq" (dae.Dae.dq x) fd_dq;
        check "df" (dae.Dae.df ~t x) fd_df);
    Alcotest.test_case "constructors reject parameters that evaluate to NaN" `Quick (fun () ->
        let rejects name make =
          match make () with
          | (_ : Mna.device) -> Alcotest.failf "%s: expected Invalid_argument" name
          | exception Invalid_argument _ -> ()
        in
        let n = 1 in
        rejects "diode vt = 0" (fun () -> Mna.diode ~label:"D" ~vt:0. n 0);
        rejects "diode vt < 0" (fun () -> Mna.diode ~label:"D" ~vt:(-0.02) n 0);
        rejects "diode vt nan" (fun () -> Mna.diode ~label:"D" ~vt:Float.nan n 0);
        let junction ?vj ?m ?fc () = Mna.junction_capacitor ~label:"C" ?vj ?m ?fc n 0 in
        rejects "m = 1" (fun () -> junction ~m:1. ());
        rejects "m > 1" (fun () -> junction ~m:1.5 ());
        rejects "vj = 0" (fun () -> junction ~vj:0. ());
        rejects "vj < 0" (fun () -> junction ~vj:(-0.7) ());
        rejects "fc < 0" (fun () -> junction ~fc:(-0.1) ());
        rejects "fc = 1" (fun () -> junction ~fc:1. ());
        (* the edges of the valid ranges still build finite stamps *)
        let net = Mna.create () in
        let a = Mna.node net "a" in
        Mna.add net (Mna.junction_capacitor ~label:"J" ~m:0.99 ~fc:0. a Mna.ground);
        Mna.add net (Mna.diode ~label:"D" ~vt:1e-3 a Mna.ground);
        let dae = Mna.compile net in
        Alcotest.(check bool) "finite q" true (Float.is_finite (dae.Dae.q [| 0.2 |]).(0));
        Alcotest.(check bool) "finite f" true (Float.is_finite (dae.Dae.f ~t:0. [| 0.02 |]).(0)));
    Alcotest.test_case "f and q allocate at most 32 words per call" `Quick (fun () ->
        (* one small context record and the result array per call; the
           stamping itself must not box floats or build closures *)
        let dae = Vco.build (Vco.vco_a ()) in
        let x = [| 1.3; -0.2; 0.9; 0.1 |] in
        let wf = words_per_call (fun () -> dae.Dae.f ~t:7. x) in
        let wq = words_per_call (fun () -> dae.Dae.q x) in
        Alcotest.(check bool) (Printf.sprintf "f: %.1f words/call <= 32" wf) true (wf <= 32.);
        Alcotest.(check bool) (Printf.sprintf "q: %.1f words/call <= 32" wq) true (wq <= 32.));
    Alcotest.test_case "eval_into allocates at most 12 words per call for every output subset"
      `Quick (fun () ->
        (* into caller buffers, a pass allocates only its context
           record, whichever outputs it fills *)
        let dae = Vco.build (Vco.vco_a ()) in
        let x = [| 1.3; -0.2; 0.9; 0.1 |] in
        List.iter
          (fun ((wq, wf, wc, wg) as subset) ->
            let q, f, c, g = buffers dae.Dae.dim subset ~fill:0. in
            let w = words_per_call (fun () -> dae.Dae.eval_into ~t:7. x ~q ~f ~c ~g) in
            Alcotest.(check bool)
              (Printf.sprintf "q=%b f=%b c=%b g=%b: %.1f words/call <= 12" wq wf wc wg w)
              true (w <= 12.))
          subsets);
    Alcotest.test_case "value-only passes give the full pass's q and f bits" `Quick (fun () ->
        (* a pass without C or G skips every device's derivative
           arithmetic; its q and f must still be the full pass's, bit
           for bit, across every device region *)
        let dae, x0 = all_devices () in
        let n = dae.Dae.dim in
        for k = 0 to 59 do
          let t = 0.37 *. float_of_int k in
          let x = Array.mapi (fun i xi -> xi +. (0.4 *. sin (float_of_int ((k * 13) + (i * 7))))) x0 in
          let q = Array.make n Float.nan and f = Array.make n Float.nan in
          dae.Dae.eval_into ~t x ~q ~f ~c:(Mat.zeros n n) ~g:(Mat.zeros n n);
          List.iter
            (fun ((wq, wf, _, _) as subset) ->
              let q', f', c', g' = buffers n subset ~fill:Float.nan in
              dae.Dae.eval_into ~t x ~q:q' ~f:f' ~c:c' ~g:g';
              if (wq && bits q' <> bits q) || (wf && bits f' <> bits f) then
                Alcotest.failf "state %d: q=%b f=%b differs from the full pass" k wq wf)
            (List.filter (fun (wq, wf, wc, wg) -> (wq || wf) && not (wc || wg)) subsets)
        done);
    Alcotest.test_case "concurrent evaluation from two domains matches serial bits" `Quick
      (fun () ->
        let dae, x0 = all_devices () in
        let points =
          Array.init 40 (fun k ->
              let shift i = 0.01 *. float_of_int ((k * 7) + i) in
              (0.1 *. float_of_int k, Array.mapi (fun i xi -> xi +. shift i) x0))
        in
        (* q and C come out of eval_into at t <> 0 with the bits of the
           closures' t = 0 evaluation: no q stamp reads the time *)
        let eval p =
          (closure_bits dae p, List.map (eval_into_bits dae p) subsets)
        in
        let serial = Array.map eval points in
        Array.iteri
          (fun k (closures, passes) ->
            List.iter2
              (fun subset pass ->
                if pass <> requested subset closures then
                  Alcotest.failf "eval_into at t = %g differs from the closures" (fst points.(k)))
              subsets passes)
          serial;
        let sweep () =
          let ok = ref true in
          for _ = 1 to 50 do
            Array.iteri (fun k p -> if eval p <> serial.(k) then ok := false) points
          done;
          !ok
        in
        let other = Domain.spawn sweep in
        let here = sweep () in
        Alcotest.(check bool) "this domain" true here;
        Alcotest.(check bool) "spawned domain" true (Domain.join other));
  ]

(* equilibrium gap and small-signal frequency at a constant control
   voltage, read off the program path's start state and nominal
   frequency *)
let at_control p vc =
  { p with Vco.varactor = { p.Vco.varactor with Mna.control = (fun _ -> vc) } }

let equilibrium_gap p vc = (Vco.initial_state (at_control p vc)).(Vco.idx_gap)
let frequency_at p vc = Vco.nominal_frequency (at_control p vc)

let vco_tests =
  [
    Alcotest.test_case "nominal frequency is 0.75 MHz" `Quick (fun () ->
        let p = Vco.default_params ~control:(fun _ -> 1.5) () in
        approx_tol 1e-3 "f" 0.7503 (Vco.nominal_frequency p));
    Alcotest.test_case "amplitude estimate is 2 V" `Quick (fun () ->
        let p = Vco.vco_a () in
        approx_tol 1e-9 "amp" 2. (Vco.initial_state p).(Vco.idx_voltage));
    Alcotest.test_case "equilibrium gap at bias is gap0" `Quick (fun () ->
        let p = Vco.vco_a () in
        approx_tol 1e-9 "gap" 1. (equilibrium_gap p 1.5);
        let pb = Vco.vco_b () in
        approx_tol 1e-9 "gap b" 1. (equilibrium_gap pb 1.5));
    Alcotest.test_case "higher control voltage closes the gap (lower frequency)" `Quick
      (fun () ->
        let p = Vco.vco_a () in
        let g_low = equilibrium_gap p 1.0 in
        let g_high = equilibrium_gap p 2.5 in
        Alcotest.(check bool) "monotone" true (g_high < 1. && g_low > 1.);
        Alcotest.(check bool) "freq follows sqrt(gap)" true
          (frequency_at p 2.5 < frequency_at p 1.0));
    Alcotest.test_case "parallel-plate equilibrium solves force balance" `Quick (fun () ->
        let p =
          Vco.default_params ~force_power:2 ~control:(fun _ -> 1.5) ()
        in
        let va = p.Vco.varactor in
        let g = equilibrium_gap p 2.0 in
        let balance =
          (va.Mna.stiffness *. (g -. va.Mna.g_rest)) +. (va.Mna.force0 *. 4.0 /. (g *. g))
        in
        approx_tol 1e-9 "balance" 0. balance);
    Alcotest.test_case "netlist VCO equals hand-coded DAE" `Quick (fun () ->
        let p = Vco.vco_a () in
        let dae = Vco.build p in
        let va = p.Vco.varactor in
        (* hand-coded: x = [v; iL; g; u] *)
        let q_hand x =
          [| va.Mna.c0 *. va.Mna.gap0 *. x.(0) /. x.(2); p.Vco.l *. x.(1); x.(2); va.Mna.mass *. x.(3) |]
        in
        let f_hand ~t x =
          let vc = va.Mna.control t in
          [|
            x.(1) +. (-.p.Vco.g1 *. x.(0)) +. (p.Vco.g3 *. (x.(0) ** 3.));
            -.x.(0);
            -.x.(3);
            (va.Mna.damping *. x.(3))
            +. (va.Mna.stiffness *. (x.(2) -. va.Mna.g_rest))
            +. (va.Mna.force0 *. vc *. vc);
          |]
        in
        let x = [| 1.7; -0.4; 0.8; 0.05 |] in
        Alcotest.(check bool) "q" true (Vec.approx_equal ~tol:1e-12 (dae.Dae.q x) (q_hand x));
        Alcotest.(check bool) "f" true
          (Vec.approx_equal ~tol:1e-12 (dae.Dae.f ~t:3. x) (f_hand ~t:3. x)));
    Alcotest.test_case "unforced VCO oscillates near nominal frequency" `Slow (fun () ->
        let p = Vco.default_params ~control:(fun _ -> 1.5) () in
        let dae = Vco.build p in
        let x0 = Vco.initial_state p in
        let t1 = 20. in
        let traj =
          Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1 ~h:(1.333 /. 400.) x0
        in
        let v = Transient.component traj 0 in
        let dt = traj.Transient.times.(1) -. traj.Transient.times.(0) in
        let f = Fourier.Spectrum.dominant_frequency ~dt v in
        Alcotest.(check bool) "f ~ 0.75" true (Float.abs (f -. 0.75) < 0.02));
    Alcotest.test_case "mems gap responds to control voltage step" `Quick (fun () ->
        (* step the control voltage; gap must move toward the new equilibrium *)
        let p =
          Vco.default_params ~damping:1.57
            ~control:(fun t -> if t < 0.01 then 1.5 else 2.5)
            ()
        in
        let dae = Vco.build p in
        let x0 = Vco.initial_state p in
        let traj =
          Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:400. ~h:0.05 x0
        in
        let g_final = Transient.interpolate traj Vco.idx_gap 400. in
        let g_target = equilibrium_gap p 2.5 in
        approx_tol 0.02 "gap settles" g_target g_final);
  ]

let prop_tests =
  let open QCheck in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"charge neutrality: capacitor charges sum to zero" ~count:30
         (make
            Gen.(tup3 (float_range 0.1 10.) (float_range (-5.) 5.) (float_range (-5.) 5.)))
         (fun (c, v1, v2) ->
           let net = Mna.create () in
           let a = Mna.node net "a" and b = Mna.node net "b" in
           Mna.add net (Mna.capacitor ~label:"C" ~c a b);
           (* anchor both nodes with resistors so the system is well-posed *)
           Mna.add net (Mna.resistor ~label:"Ra" ~r:1. a Mna.ground);
           Mna.add net (Mna.resistor ~label:"Rb" ~r:1. b Mna.ground);
           let dae = Mna.compile net in
           let q = dae.Dae.q [| v1; v2 |] in
           Float.abs (q.(0) +. q.(1)) < 1e-12));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"vco jacobians match fd at random states" ~count:25
         (make
            Gen.(
              tup4 (float_range (-2.5) 2.5) (float_range (-1.) 1.) (float_range 0.4 2.5)
                (float_range (-0.5) 0.5)))
         (fun (v, i, g, u) ->
           let p = Vco.vco_b () in
           let dae = Vco.build p in
           let x = [| v; i; g; u |] in
           let fd_dq = Nonlin.Fdjac.jacobian_central dae.Dae.q x in
           let fd_df = Nonlin.Fdjac.jacobian_central (fun y -> dae.Dae.f ~t:2. y) x in
           Mat.approx_equal ~tol:1e-4 (dae.Dae.dq x) fd_dq
           && Mat.approx_equal ~tol:1e-4 (dae.Dae.df ~t:2. x) fd_df));
  ]

let suites =
  [
    ("circuit.mna", mna_tests);
    ("circuit.stamps", stamp_tests);
    ("circuit.vco", vco_tests);
    ("circuit.properties", prop_tests);
  ]

