(* Live-telemetry tests: the ETA estimator's finiteness guarantee,
   health-monitor threshold edge semantics (strictly-greater,
   edge-triggered), the NDJSON stream contract (well-formed lines,
   terminal record, bounded buffer, idempotent finish), the doctor
   diagnosis, and the zero-span Perfetto regression. *)
module Obs = Wampde_obs
open Linalg
open Fourier

let two_pi = 2. *. Float.pi

(* Every test runs against a zeroed registry with default thresholds
   restored on exit, so monitor state cannot leak across tests. *)
let with_clean f () =
  Obs.Metrics.with_isolated (fun () ->
      Fun.protect
        ~finally:(fun () ->
          Obs.Health.set_thresholds Obs.Health.default_thresholds;
          Obs.set_enabled false)
        (fun () ->
          Obs.set_enabled false;
          Obs.Health.set_thresholds Obs.Health.default_thresholds;
          f ()))

let check_ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

let warnings_for monitor = Obs.Metrics.count (Obs.Metrics.counter ("health.warnings." ^ monitor))

(* a tiny VCO-A envelope run shared by the end-to-end tests *)
let small_envelope_run () =
  let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
  let orbit =
    Steady.Oscillator.find (Circuit.Vco.build p0) ~n1:15 ~period_hint:1.333
      (Circuit.Vco.initial_state p0)
  in
  let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
  let options = Wampde.Envelope.default_options ~n1:15 () in
  Wampde.Envelope.simulate dae ~options ~t2_end:2. ~h2:0.5 ~init:orbit

let eta_tests =
  [
    Alcotest.test_case "steady progress gives the obvious ETA" `Quick (fun () ->
        let e = Obs.Eta.create ~alpha:1.0 ~total:10. () in
        Obs.Eta.update e ~now:0. ~completed:0.;
        Obs.Eta.update e ~now:1. ~completed:1.;
        Alcotest.(check (float 1e-9)) "rate" 1. (Obs.Eta.rate e);
        Alcotest.(check (float 1e-9)) "eta" 9. (Obs.Eta.eta_s e);
        Alcotest.(check (float 1e-9)) "fraction" 0.1 (Obs.Eta.fraction e);
        Obs.Eta.update e ~now:2. ~completed:10.;
        Alcotest.(check (float 1e-9)) "complete" 0. (Obs.Eta.eta_s e);
        Alcotest.(check (float 1e-9)) "full fraction" 1. (Obs.Eta.fraction e));
    Alcotest.test_case "no rate yet means infinite ETA, not a guess" `Quick (fun () ->
        let e = Obs.Eta.create ~total:5. () in
        Alcotest.(check (float 0.)) "before any update" infinity (Obs.Eta.eta_s e);
        Obs.Eta.update e ~now:3. ~completed:0.;
        Alcotest.(check (float 0.)) "no progress yet" infinity (Obs.Eta.eta_s e));
    Alcotest.test_case "stalls degrade the estimate pessimistically" `Quick (fun () ->
        let e = Obs.Eta.create ~alpha:1.0 ~total:100. () in
        Obs.Eta.update e ~now:0. ~completed:0.;
        Obs.Eta.update e ~now:1. ~completed:10.;
        let before = Obs.Eta.eta_s e in
        (* a long stall, then one unit of progress: the stalled span is
           charged to the new rate sample *)
        Obs.Eta.update e ~now:11. ~completed:10.;
        Obs.Eta.update e ~now:12. ~completed:11.;
        let after = Obs.Eta.eta_s e in
        Alcotest.(check bool) "stall lengthens ETA" true (after > before);
        Alcotest.(check bool) "still finite" true (Float.is_finite after));
    Alcotest.test_case "backwards progress and overshoot are clamped" `Quick (fun () ->
        let e = Obs.Eta.create ~total:10. () in
        Obs.Eta.update e ~now:0. ~completed:4.;
        Obs.Eta.update e ~now:1. ~completed:2.;
        Alcotest.(check (float 1e-9)) "non-decreasing" 0.4 (Obs.Eta.fraction e);
        Obs.Eta.update e ~now:2. ~completed:25.;
        Alcotest.(check (float 1e-9)) "clamped to total" 1. (Obs.Eta.fraction e));
    Alcotest.test_case "invalid construction is rejected" `Quick (fun () ->
        let bad f = Alcotest.(check bool) "raises" true (try ignore (f ()); false with Invalid_argument _ -> true) in
        bad (fun () -> Obs.Eta.create ~total:0. ());
        bad (fun () -> Obs.Eta.create ~total:nan ());
        bad (fun () -> Obs.Eta.create ~alpha:0. ~total:1. ());
        bad (fun () -> Obs.Eta.create ~alpha:1.5 ~total:1. ()));
  ]

let eta_prop_tests =
  let open QCheck in
  (* (dt, dc) step sequences: non-negative dt, non-negative dc *)
  let step_gen = Gen.pair (Gen.float_bound_inclusive 3.) (Gen.float_bound_inclusive 5.) in
  let seq_gen = Gen.list_size (Gen.int_range 1 40) step_gen in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"monotone progress gives finite non-negative ETA" ~count:200
         (make seq_gen) (fun steps ->
           let e = Obs.Eta.create ~total:1000. () in
           let now = ref 0. and done_ = ref 0. in
           Obs.Eta.update e ~now:!now ~completed:!done_;
           let progressed = ref false in
           List.iter
             (fun (dt, dc) ->
               if dt > 0. && dc > 0. then progressed := true;
               now := !now +. dt;
               done_ := Float.min 1000. (!done_ +. dc);
               Obs.Eta.update e ~now:!now ~completed:!done_)
             steps;
           (not !progressed)
           || (Obs.Eta.eta_s e >= 0. && Float.is_finite (Obs.Eta.eta_s e))));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"fraction stays in the unit interval" ~count:100 (make seq_gen)
         (fun steps ->
           let e = Obs.Eta.create ~total:7. () in
           let now = ref 0. and done_ = ref 0. in
           List.for_all
             (fun (dt, dc) ->
               now := !now +. dt;
               done_ := !done_ +. dc;
               Obs.Eta.update e ~now:!now ~completed:!done_;
               let f = Obs.Eta.fraction e in
               f >= 0. && f <= 1.)
             steps));
  ]

let health_tests =
  [
    Alcotest.test_case "warning fires strictly above threshold, not at it" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           let tol = (Obs.Health.thresholds ()).Obs.Health.tail_tol in
           let fired = ref [] in
           let sub =
             Obs.Events.subscribe (fun r ->
               match r.Obs.Events.event with
               | Obs.Events.Health_warning { monitor; value; threshold; _ } ->
                 fired := (monitor, value, threshold) :: !fired
               | _ -> ())
           in
           Fun.protect ~finally:(fun () -> Obs.Events.unsubscribe sub) @@ fun () ->
           (* exactly at the threshold: silent *)
           Obs.Health.note_spectrum ~tail:tol ~needed:3 ~available:7 ();
           Alcotest.(check int) "at threshold" 0 (warnings_for "t1_tail_energy");
           (* strictly above: fires once *)
           Obs.Health.note_spectrum ~tail:(tol *. 1.001) ~needed:3 ~available:7 ();
           Alcotest.(check int) "above threshold" 1 (warnings_for "t1_tail_energy");
           (* still above: edge-triggered, stays silent *)
           Obs.Health.note_spectrum ~tail:(tol *. 10.) ~needed:3 ~available:7 ();
           Alcotest.(check int) "still above" 1 (warnings_for "t1_tail_energy");
           (* back to the threshold (not above), then above: fires again *)
           Obs.Health.note_spectrum ~tail:tol ~needed:3 ~available:7 ();
           Obs.Health.note_spectrum ~tail:(tol *. 2.) ~needed:3 ~available:7 ();
           Alcotest.(check int) "re-crossing" 2 (warnings_for "t1_tail_energy");
           Alcotest.(check int) "total counter" 2
             (Obs.Metrics.count (Obs.Metrics.counter "health.warnings"));
           match !fired with
           | (monitor, value, threshold) :: _ ->
             Alcotest.(check string) "monitor name" "t1_tail_energy" monitor;
             Alcotest.(check (float 0.)) "threshold carried" tol threshold;
             Alcotest.(check bool) "value above" true (value > threshold)
           | [] -> Alcotest.fail "no event payload captured"));
    Alcotest.test_case "over-resolution monitor flags wasteful grids" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           (* 2 of 20 harmonics used: slack 0.9 > 0.75 *)
           Obs.Health.note_spectrum ~tail:0. ~needed:2 ~available:20 ();
           Alcotest.(check int) "over-resolved" 1 (warnings_for "t1_over_resolution");
           Alcotest.(check (float 1e-9)) "gauge" 2.
             (Obs.Metrics.value (Obs.Metrics.gauge "health.effective_harmonics"))));
    Alcotest.test_case "rejection window fires at the documented boundary" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           Obs.Health.set_thresholds
             { Obs.Health.default_thresholds with
               Obs.Health.rejection_rate = 0.5;
               rejection_window = 4;
             };
           (* fill the window with accepts: rate 0 *)
           for _ = 1 to 4 do
             Obs.Health.note_decision ~outcome:`Accept ()
           done;
           Obs.Health.note_decision ~outcome:`Reject ();
           Obs.Health.note_decision ~outcome:`Reject ();
           (* window now [A; A; R; R]: rate 0.5 == threshold, silent *)
           Alcotest.(check int) "at boundary" 0 (warnings_for "rejection_rate");
           Obs.Health.note_decision ~outcome:`Retry ();
           (* [A; R; R; T]: 0.75 > 0.5, fires *)
           Alcotest.(check int) "above boundary" 1 (warnings_for "rejection_rate");
           Obs.Health.note_decision ~outcome:`Reject ();
           Alcotest.(check int) "edge-triggered" 1 (warnings_for "rejection_rate")));
    Alcotest.test_case "partial window never warns" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           Obs.Health.set_thresholds
             { Obs.Health.default_thresholds with
               Obs.Health.rejection_rate = 0.1;
               rejection_window = 8;
             };
           for _ = 1 to 7 do
             Obs.Health.note_decision ~outcome:`Reject ()
           done;
           Alcotest.(check int) "window not yet full" 0 (warnings_for "rejection_rate")));
    Alcotest.test_case "transient-scope decisions are not macro-step health" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           Obs.Health.set_thresholds
             { Obs.Health.default_thresholds with
               Obs.Health.rejection_rate = 0.1;
               rejection_window = 2;
             };
           Obs.Scope.with_scope "transient" (fun () ->
               for _ = 1 to 20 do
                 Obs.Health.note_decision ~outcome:`Reject ()
               done);
           Alcotest.(check int) "micro steps ignored" 0 (warnings_for "rejection_rate");
           Alcotest.(check (float 0.)) "gauge untouched" 0.
             (Obs.Metrics.value (Obs.Metrics.gauge "health.rejection_rate"))));
    Alcotest.test_case "failed GMRES solve always counts as stagnation" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           Obs.Health.note_gmres ~iterations:3 ~restart:30 ~converged:false ~reduction:nan ();
           Alcotest.(check int) "failure warns" 1 (warnings_for "gmres_stagnation");
           (* a healthy solve afterwards re-arms the edge *)
           Obs.Health.note_gmres ~iterations:3 ~restart:30 ~converged:true ~reduction:0.1 ();
           Obs.Health.note_gmres ~iterations:3 ~restart:30 ~converged:false ~reduction:nan ();
           Alcotest.(check int) "re-fires" 2 (warnings_for "gmres_stagnation")));
    Alcotest.test_case "GMRES plateau needs enough iterations" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           (* slow reduction but too few iterations: silent *)
           Obs.Health.note_gmres ~iterations:3 ~restart:30 ~converged:true ~reduction:0.99 ();
           Alcotest.(check int) "short solve" 0 (warnings_for "gmres_plateau");
           Obs.Health.note_gmres ~iterations:12 ~restart:30 ~converged:true ~reduction:0.99 ();
           Alcotest.(check int) "long plateau" 1 (warnings_for "gmres_plateau")));
    Alcotest.test_case "Newton single-iteration rates never warn" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           Obs.Health.note_newton ~iterations:1 ~rate:0.999 ();
           Alcotest.(check int) "one iteration" 0 (warnings_for "newton_rate");
           Alcotest.(check (float 1e-9)) "gauge still updated" 0.999
             (Obs.Metrics.value (Obs.Metrics.gauge "health.newton_rate"));
           Obs.Health.note_newton ~iterations:5 ~rate:0.999 ();
           Alcotest.(check int) "slow convergence warns" 1 (warnings_for "newton_rate")));
    Alcotest.test_case "disabled telemetry drops everything" `Quick
      (with_clean (fun () ->
           Obs.Health.note_spectrum ~tail:1. ~needed:1 ~available:100 ();
           Obs.Health.note_decision ~outcome:`Reject ();
           Obs.Health.note_escalation ();
           Alcotest.(check int) "no warnings" 0
             (Obs.Metrics.count (Obs.Metrics.counter "health.warnings"))));
  ]

let resolution_tests =
  [
    Alcotest.test_case "harmonics_needed matches its truncation_error definition" `Quick
      (fun () ->
        let n = 31 in
        let x =
          Vec.init n (fun j ->
              let t = float_of_int j /. float_of_int n in
              sin (two_pi *. t) +. (0.3 *. cos (3. *. two_pi *. t))
              +. (1e-4 *. sin (5. *. two_pi *. t)))
        in
        let tol = 1e-3 in
        let fast = Series.harmonics_needed ~tol x in
        (* reference: smallest keep with relative truncation error <= tol *)
        let m = n / 2 in
        let naive = ref m in
        (try
           for k = 0 to m do
             if Series.truncation_error x ~keep:k <= tol then begin
               naive := k;
               raise Exit
             end
           done
         with Exit -> ());
        Alcotest.(check int) "agrees with naive scan" !naive fast;
        Alcotest.(check int) "keeps the 3rd harmonic" 3 fast);
    Alcotest.test_case "grid_resolution takes worst case over components" `Quick (fun () ->
        let n1 = 15 in
        let smooth j = sin (two_pi *. float_of_int j /. float_of_int n1) in
        let rough j =
          smooth j +. (0.2 *. sin (5. *. two_pi *. float_of_int j /. float_of_int n1))
        in
        let states = Array.init n1 (fun j -> [| smooth j; rough j |]) in
        let r = Series.grid_resolution ~tol:1e-6 states in
        Alcotest.(check int) "available" 7 r.Series.available;
        Alcotest.(check int) "needed follows the rough component" 5 r.Series.needed;
        Alcotest.(check bool) "tail small for a band-limited grid" true
          (r.Series.tail < 1e-8);
        (* on a broadband grid the gauge agrees with the FFT
           coefficients of each component *)
        let n1 = 25 in
        let broad =
          Array.init n1 (fun j ->
              [| Float.abs (sin (0.4 *. float_of_int j)); float_of_int (j mod 4) |])
        in
        let r = Series.grid_resolution ~tol:1e-3 broad in
        let per_component =
          List.map
            (fun c ->
              Series.resolution_of_coeffs ~tol:1e-3
                (Series.coeffs (Array.map (fun s -> s.(c)) broad)))
            [ 0; 1 ]
        in
        Alcotest.(check int) "needed as from coeffs"
          (List.fold_left (fun a p -> max a p.Series.needed) 0 per_component)
          r.Series.needed;
        Alcotest.(check (float 1e-12)) "tail as from coeffs"
          (List.fold_left (fun a p -> Float.max a p.Series.tail) 0. per_component)
          r.Series.tail);
  ]

let resolution_prop_tests =
  let open QCheck in
  let sig_gen n = Gen.array_size (Gen.return n) (Gen.float_range (-10.) 10.) in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"harmonics_needed = smallest adequate keep" ~count:100
         (make (Gen.pair (sig_gen 21) (Gen.float_range (-6.) (-1.)))) (fun (x, log_tol) ->
           let tol = 10. ** log_tol in
           let k = Series.harmonics_needed ~tol x in
           let m = 10 in
           k >= 0 && k <= m
           && Series.truncation_error x ~keep:k <= tol +. 1e-12
           && (k = 0 || Series.truncation_error x ~keep:(k - 1) > tol)));
  ]

let stream_tests =
  let collect () =
    let lines = ref [] in
    let write l = lines := l :: !lines in
    (lines, write)
  in
  let parsed lines = List.rev_map (fun l -> check_ok "stream line" (Obs.Json.parse l)) !lines in
  let record_type j =
    match Option.bind (Obs.Json.member "type" j) Obs.Json.to_str with
    | Some s -> s
    | None -> Alcotest.fail "stream record without a type"
  in
  (* the macro-step count the terminal "done" record reports *)
  let done_steps records =
    match List.find_opt (fun j -> record_type j = "done") records with
    | Some j -> (
      match Option.bind (Obs.Json.member "steps" j) Obs.Json.to_num with
      | Some n -> int_of_float n
      | None -> Alcotest.fail "done record without steps")
    | None -> Alcotest.fail "stream without a done record"
  in
  [
    Alcotest.test_case "every line is JSON; terminal record closes the stream" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           let lines, write = collect () in
           let s =
             Obs.Stream.start ~min_progress_s:0. ~total:10. ~run:"test" ~write
               ~flush:(fun () -> ())
               ()
           in
           Obs.Events.emit (Obs.Events.Step_accept { t = 1.; h = 0.5 });
           Obs.Events.emit (Obs.Events.Phase_condition { omega = 6.28; t2 = 1. });
           Obs.Events.emit
             (Obs.Events.Step_reject { t = 1.5; h = 0.5; reason = "error control" });
           Obs.Stream.finish s ~ok:true ();
           let records = parsed lines in
           let types = List.map record_type records in
           Alcotest.(check string) "first is start" "start" (List.hd types);
           Alcotest.(check string) "last is done" "done" (List.nth types (List.length types - 1));
           Alcotest.(check bool) "progress present" true (List.mem "progress" types);
           Alcotest.(check bool) "reject event forwarded" true (List.mem "event" types);
           Alcotest.(check int) "macro steps counted" 1 (done_steps records);
           (* the progress record carries a sane fraction *)
           let progress =
             List.find (fun j -> record_type j = "progress") records
           in
           (match Option.bind (Obs.Json.member "frac" progress) Obs.Json.to_num with
            | Some f -> Alcotest.(check bool) "fraction in range" true (f >= 0. && f <= 1.)
            | None -> Alcotest.fail "progress without frac")));
    Alcotest.test_case "progress pairs t2 with omega(t2), not the step before" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           let lines, write = collect () in
           let s =
             Obs.Stream.start ~min_progress_s:0. ~total:10. ~run:"test" ~write
               ~flush:(fun () -> ())
               ()
           in
           (* the order a march emits: the accept, then omega at its end *)
           Obs.Events.emit (Obs.Events.Step_accept { t = 0.; h = 0.5 });
           Obs.Events.emit (Obs.Events.Phase_condition { omega = 6.25; t2 = 0.5 });
           Obs.Events.emit (Obs.Events.Step_accept { t = 0.5; h = 0.25 });
           Obs.Events.emit (Obs.Events.Phase_condition { omega = 7.5; t2 = 0.75 });
           Obs.Stream.finish s ~ok:true ();
           let num k j =
             match Option.bind (Obs.Json.member k j) Obs.Json.to_num with
             | Some v -> v
             | None -> Alcotest.failf "progress without a numeric %s" k
           in
           let progress =
             List.filter (fun j -> record_type j = "progress") (parsed lines)
             |> List.map (fun j -> (num "t2" j, num "h2" j, num "omega" j))
           in
           Alcotest.(check (list (triple (float 0.) (float 0.) (float 0.))))
             "(t2, h2, omega) per accepted step"
             [ (0.5, 0.5, 6.25); (0.75, 0.25, 7.5) ]
             progress));
    Alcotest.test_case "finish is idempotent and error wins only once" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           let lines, write = collect () in
           let s = Obs.Stream.start ~run:"test" ~write ~flush:(fun () -> ()) () in
           Obs.Stream.finish s ~ok:false ~error:"boom" ();
           let n = List.length !lines in
           Obs.Stream.finish s ~ok:true ();
           Obs.Stream.finish s ~ok:false ~error:"again" ();
           Alcotest.(check int) "no further writes" n (List.length !lines);
           let last = List.hd (List.rev (parsed lines)) in
           Alcotest.(check string) "terminal is the error" "error" (record_type last);
           match Option.bind (Obs.Json.member "error" last) Obs.Json.to_str with
           | Some msg -> Alcotest.(check string) "message preserved" "boom" msg
           | None -> Alcotest.fail "error record without message"));
    Alcotest.test_case "the stream is bounded but the terminal record goes through" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           let lines, write = collect () in
           let s =
             Obs.Stream.start ~max_records:5 ~run:"test" ~write ~flush:(fun () -> ()) ()
           in
           for i = 1 to 50 do
             Obs.Events.emit
               (Obs.Events.Step_reject { t = float_of_int i; h = 0.1; reason = "cap test" })
           done;
           Obs.Stream.finish s ~ok:true ();
           let types = List.map record_type (parsed lines) in
           Alcotest.(check bool) "bounded" true (List.length types <= 7);
           Alcotest.(check int) "one truncation marker" 1
             (List.length (List.filter (( = ) "truncated") types));
           Alcotest.(check string) "terminal still written" "done"
             (List.nth types (List.length types - 1));
           Alcotest.(check bool) "drops counted" true
             (Obs.Metrics.count (Obs.Metrics.counter "stream.dropped") > 0)));
    Alcotest.test_case "transient-scope events do not reach the stream" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           let lines, write = collect () in
           let s =
             Obs.Stream.start ~min_progress_s:0. ~run:"test" ~write ~flush:(fun () -> ()) ()
           in
           Obs.Scope.with_scope "transient" (fun () ->
               Obs.Events.emit (Obs.Events.Step_accept { t = 0.1; h = 0.01 }));
           Obs.Stream.finish s ~ok:true ();
           Alcotest.(check int) "micro steps not counted" 0 (done_steps (parsed lines));
           let types = List.map record_type (parsed lines) in
           Alcotest.(check bool) "no progress record" true (not (List.mem "progress" types))));
  ]

let t1_findings manifest =
  List.filter
    (fun f -> f.Obs.Doctor.category = "t1_resolution")
    (check_ok "diagnosis" (Obs.Doctor.diagnose_string manifest))

let doctor_tests =
  [
    Alcotest.test_case "diagnosis of a live run covers three categories" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           let collector = Obs.Report.collect () in
           let t0 = Unix.gettimeofday () in
           ignore (small_envelope_run ());
           let steps = Obs.Report.finish collector in
           let manifest =
             Obs.Report.manifest ~subcommand:"envelope" ~wall_s:(Unix.gettimeofday () -. t0)
               ~steps ()
           in
           check_ok "manifest validates" (Obs.Report.check manifest);
           let findings =
             check_ok "diagnosis" (Obs.Doctor.diagnose_string manifest)
           in
           let categories =
             List.sort_uniq compare (List.map (fun f -> f.Obs.Doctor.category) findings)
           in
           Alcotest.(check bool) "at least three categories" true
             (List.length categories >= 3);
           List.iter
             (fun f ->
               Alcotest.(check bool) "summary non-empty" true (f.Obs.Doctor.summary <> ""))
             findings;
           (* warnings sort before informational findings *)
           let severities = List.map (fun f -> f.Obs.Doctor.severity) findings in
           let rec sorted = function
             | Obs.Doctor.Info :: Obs.Doctor.Warn :: _ -> false
             | _ :: rest -> sorted rest
             | [] -> true
           in
           Alcotest.(check bool) "warnings first" true (sorted severities);
           (* rendering mentions every category; JSON parses *)
           let rendered = Obs.Doctor.render findings in
           List.iter
             (fun c ->
               Alcotest.(check bool) (Printf.sprintf "render mentions %s" c) true
                 (let re = Str.regexp_string c in
                  try ignore (Str.search_forward re rendered 0); true
                  with Not_found -> false))
             categories;
           ignore (check_ok "doctor json" (Obs.Json.parse (Obs.Doctor.to_json findings)))));
    Alcotest.test_case "cost names the dominant macro scope, the warm-up's share apart" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           let cost () =
             let findings =
               check_ok "diagnosis"
                 (Obs.Doctor.diagnose_string (Obs.Report.manifest ~wall_s:1. ~steps:[] ()))
             in
             (List.find (fun f -> f.Obs.Doctor.category = "cost") findings).Obs.Doctor.summary
           in
           (* Newton iterations, then LU factors (weight 4), per scope *)
           let work scope newton lu =
             Obs.Scope.with_scope scope (fun () ->
                 Obs.Metrics.add (Obs.Metrics.counter "newton.iterations") newton;
                 Obs.Metrics.add (Obs.Metrics.counter "lu.factor") lu)
           in
           work "transient" 848 848;
           work "oscillator" 5 55;
           Alcotest.(check string) "a run with no macro scope keeps the whole-run sentence"
             "dominant cost scope is transient (95% of weighted solver work)" (cost ());
           (* weighted: 4240 + 225 warm-up, 192 + 8 march *)
           work "envelope.newton" 156 9;
           work "quasiperiodic" 8 0;
           Alcotest.(check string) "a march names its macro scope"
             "dominant macro scope is envelope.newton (96% of macro-step solver work); the warm-up \
              (transient + oscillator) is 96% of weighted solver work"
             (cost ())));
    Alcotest.test_case "stream cross-checks flag malformed and unterminated streams" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           let collector = Obs.Report.collect () in
           ignore (small_envelope_run ());
           let steps = Obs.Report.finish collector in
           let manifest = Obs.Report.manifest ~wall_s:1. ~steps () in
           let stream = "{\"type\":\"start\"}\nnot json at all\n{\"type\":\"progress\"}" in
           let findings =
             check_ok "diagnosis" (Obs.Doctor.diagnose_string ~stream manifest)
           in
           let stream_findings =
             List.filter (fun f -> f.Obs.Doctor.category = "stream") findings
           in
           Alcotest.(check bool) "stream finding present" true (stream_findings <> []);
           Alcotest.(check bool) "stream finding is a warning" true
             (List.exists (fun f -> f.Obs.Doctor.severity = Obs.Doctor.Warn) stream_findings)));
    Alcotest.test_case "doctor follows the thresholds Health ran with" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           Obs.Health.set_thresholds { Obs.Health.default_thresholds with tail_tol = 1e-3 };
           Obs.Health.note_spectrum ~tail:1e-4 ~needed:5 ~available:7 ();
           let t1 = t1_findings (Obs.Report.manifest ~wall_s:1. ~steps:[] ()) in
           Alcotest.(check bool) "t1 finding present" true (t1 <> []);
           Alcotest.(check bool) "no t1 warning" false
             (List.exists (fun f -> f.Obs.Doctor.severity = Obs.Doctor.Warn) t1)));
    Alcotest.test_case "a t1 warning mid-run outlives a clean last step" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           Obs.Health.note_spectrum ~tail:1e-3 ~needed:7 ~available:7 ();
           Obs.Health.note_spectrum ~tail:1e-9 ~needed:5 ~available:7 ();
           let t1 = t1_findings (Obs.Report.manifest ~wall_s:1. ~steps:[] ()) in
           Alcotest.(check bool) "t1 warning names the monitor" true
             (List.exists
                (fun f ->
                  f.Obs.Doctor.severity = Obs.Doctor.Warn
                  && Str.string_match (Str.regexp ".*t1_tail_energy") f.Obs.Doctor.summary 0)
                t1)));
    Alcotest.test_case "garbage manifests produce an error, not an exception" `Quick
      (fun () ->
        match Obs.Doctor.diagnose_string "{ not json" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "parse failure not reported");
  ]

let perfetto_tests =
  [
    Alcotest.test_case "zero-span trace is still a loadable trace" `Quick (fun () ->
        let buf = Buffer.create 256 in
        Obs.Trace_event.finish (Obs.Trace_event.start (Buffer.add_string buf));
        let trace = Buffer.contents buf in
        let j = check_ok "parses" (Obs.Json.parse trace) in
        let entries =
          match j with
          | Obs.Json.Arr l -> l
          | _ -> Alcotest.fail "not a JSON array"
        in
        let non_metadata =
          List.filter
            (fun e ->
              match Option.bind (Obs.Json.member "ph" e) Obs.Json.to_str with
              | Some "M" -> false
              | Some _ -> true
              | None -> Alcotest.fail "entry without ph")
            entries
        in
        Alcotest.(check bool) "has a non-metadata event" true (non_metadata <> []);
        match non_metadata with
        | e :: _ ->
          (match Option.bind (Obs.Json.member "name" e) Obs.Json.to_str with
           | Some name -> Alcotest.(check string) "synthetic instant" "trace_start" name
           | None -> Alcotest.fail "event without name")
        | [] -> ());
  ]

let suites =
  [
    ("eta", eta_tests @ eta_prop_tests);
    ("health-monitors", health_tests);
    ("spectral-resolution", resolution_tests @ resolution_prop_tests);
    ("stream", stream_tests);
    ("doctor", doctor_tests);
    ("perfetto-regression", perfetto_tests);
  ]
