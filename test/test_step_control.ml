(* Tests for the shared slow-axis step controller. *)

let sc_opts = Step_control.default_options

(* trapezoidal step for y' = -y: y1 = y0 (1 - h/2) / (1 + h/2) *)
let trap ~h y = y *. (1. -. (h /. 2.)) /. (1. +. (h /. 2.))

let step_doubling_err ~h y0 =
  let full = trap ~h y0 in
  let fine = trap ~h:(h /. 2.) (trap ~h:(h /. 2.) y0) in
  Float.abs ((fine -. full) /. Step_control.richardson_denom ~order:2)

let tests =
  [
    Alcotest.test_case "richardson error has the trapezoid's order" `Quick (fun () ->
        (* LTE ~ h^3 for an order-2 method: halving h must shrink the
           step-doubling estimate by ~2^3 *)
        let e1 = step_doubling_err ~h:0.1 1. in
        let e2 = step_doubling_err ~h:0.05 1. in
        let ratio = e1 /. e2 in
        Alcotest.(check bool)
          (Printf.sprintf "ratio %.2f in [6, 10]" ratio)
          true
          (ratio > 6. && ratio < 10.));
    Alcotest.test_case "error norm is the weighted RMS" `Quick (fun () ->
        let opts = sc_opts ~rtol:1e-3 ~atol:1e-6 () in
        let y = [| 2.; -4. |] and err = [| 1e-4; 2e-4 |] in
        let manual =
          let e1 = 1e-4 /. (1e-6 +. (1e-3 *. 2.)) in
          let e2 = 2e-4 /. (1e-6 +. (1e-3 *. 4.)) in
          sqrt (((e1 *. e1) +. (e2 *. e2)) /. 2.)
        in
        Alcotest.(check (float 1e-12)) "norm" manual (Step_control.error_norm opts ~y ~err));
    Alcotest.test_case "controller shrinks more for larger errors" `Quick (fun () ->
        (* PI monotonicity: with identical history, a larger scaled
           error must never yield a larger next step *)
        let next err =
          let ctrl = Step_control.create (sc_opts ()) ~h_init:1. in
          match Step_control.decide ctrl ~t:0. ~h_used:1. ~err with
          | Step_control.Accept h | Step_control.Reject h -> h
        in
        let errs = [ 0.01; 0.1; 0.5; 0.9; 1.5; 4. ] in
        let hs = List.map next errs in
        List.iteri
          (fun i h ->
            if i > 0 then
              Alcotest.(check bool) "monotone non-increasing" true (h <= List.nth hs (i - 1)))
          hs);
    Alcotest.test_case "acceptance grows the step, rejection shrinks it" `Quick (fun () ->
        let ctrl = Step_control.create (sc_opts ()) ~h_init:1. in
        (match Step_control.decide ctrl ~t:0. ~h_used:1. ~err:1e-4 with
         | Step_control.Accept h -> Alcotest.(check bool) "grows" true (h > 1.)
         | Step_control.Reject _ -> Alcotest.fail "tiny error must accept");
        let ctrl = Step_control.create (sc_opts ()) ~h_init:1. in
        match Step_control.decide ctrl ~t:0. ~h_used:1. ~err:9. with
        | Step_control.Reject h -> Alcotest.(check bool) "shrinks" true (h < 1.)
        | Step_control.Accept _ -> Alcotest.fail "large error must reject");
    Alcotest.test_case "rejection below h_min raises Underflow" `Quick (fun () ->
        let ctrl = Step_control.create (sc_opts ~h_min:0.09 ()) ~h_init:0.1 in
        (* reject factor clamps at min_shrink = 0.1: 0.1 * 0.1 < h_min *)
        match Step_control.decide ctrl ~t:0. ~h_used:0.1 ~err:1e12 with
        | exception Step_control.Underflow { h; _ } ->
          Alcotest.(check bool) "h below h_min" true (h < 0.09)
        | _ -> Alcotest.fail "expected Underflow");
    Alcotest.test_case "failure retry halves and escalates after two" `Quick (fun () ->
        let ctrl = Step_control.create (sc_opts ()) ~h_init:1. in
        let h1 = Step_control.failure_retry ctrl ~t:0. ~h_used:1. ~reason:"newton" in
        Alcotest.(check (float 0.)) "halved once" 0.5 h1;
        Alcotest.(check bool) "not yet" false (Step_control.should_escalate ctrl);
        let h2 = Step_control.failure_retry ctrl ~t:0. ~h_used:h1 ~reason:"newton" in
        Alcotest.(check (float 0.)) "halved twice" 0.25 h2;
        Alcotest.(check bool) "escalate" true (Step_control.should_escalate ctrl);
        Step_control.record_accept ctrl ~t:0. ~h_used:h2;
        Alcotest.(check bool) "accept clears the streak" false
          (Step_control.should_escalate ctrl));
    Alcotest.test_case "failure streak past max_failures raises Underflow" `Quick (fun () ->
        (* the streak limit is 8 consecutive failures *)
        let ctrl = Step_control.create (sc_opts ~h_min:1e-12 ()) ~h_init:1. in
        let h = ref 1. in
        for _ = 1 to 8 do
          h := Step_control.failure_retry ctrl ~t:0. ~h_used:!h ~reason:"newton"
        done;
        match Step_control.failure_retry ctrl ~t:0. ~h_used:!h ~reason:"newton" with
        | exception Step_control.Underflow _ -> ()
        | _ -> Alcotest.fail "expected Underflow after max_failures");
    Alcotest.test_case "record_accept grows toward h_max only" `Quick (fun () ->
        let ctrl = Step_control.create (sc_opts ~h_max:1.5 ()) ~h_init:1. in
        Step_control.record_accept ctrl ~t:0. ~h_used:1.;
        Alcotest.(check (float 0.)) "clamped at h_max" 1.5 (Step_control.snapshot ctrl).Step_control.s_h);
    Alcotest.test_case "snapshot round-trips and replays identically" `Quick (fun () ->
        let opts = sc_opts () in
        let ctrl = Step_control.create opts ~h_init:0.3 in
        ignore (Step_control.decide ctrl ~t:0. ~h_used:0.3 ~err:0.4);
        ignore (Step_control.decide ctrl ~t:0.3 ~h_used:(Step_control.snapshot ctrl).Step_control.s_h ~err:1.7);
        ignore (Step_control.failure_retry ctrl ~t:0.3 ~h_used:0.1 ~reason:"newton");
        let snap = Step_control.snapshot ctrl in
        let floats = Step_control.snapshot_to_floats snap in
        let snap' = Step_control.snapshot_of_floats floats in
        Alcotest.(check bool) "snapshot encodes exactly" true (snap = snap');
        let twin = Step_control.create opts ~h_init:123. in
        Step_control.restore twin snap';
        (* identical future decisions *)
        let d1 = Step_control.decide ctrl ~t:0.6 ~h_used:(Step_control.snapshot ctrl).Step_control.s_h ~err:0.2 in
        let d2 = Step_control.decide twin ~t:0.6 ~h_used:(Step_control.snapshot twin).Step_control.s_h ~err:0.2 in
        Alcotest.(check bool) "same decision" true (d1 = d2);
        Alcotest.(check (float 0.)) "same h" (Step_control.snapshot ctrl).Step_control.s_h (Step_control.snapshot twin).Step_control.s_h;
        Alcotest.(check int) "same accepted count" (Step_control.snapshot ctrl).Step_control.s_accepted
          (Step_control.snapshot twin).Step_control.s_accepted);
    Alcotest.test_case "snapshot_of_floats validates length" `Quick (fun () ->
        Alcotest.check_raises "bad length"
          (Invalid_argument "Step_control.snapshot_of_floats: expected 6 entries")
          (fun () -> ignore (Step_control.snapshot_of_floats [| 1.; 2. |])));
  ]

let suites = [ ("step_control", tests) ]
