(* Telemetry tests: metrics arithmetic, span nesting, event dispatch,
   the allocation-free disabled path, and end-to-end solver coverage. *)
module Obs = Wampde_obs

(* Every test runs against a zeroed, disabled registry and restores
   the previous metric values on exit, so telemetry state cannot leak
   across tests or suites regardless of execution order. *)
let with_clean f () =
  Obs.Metrics.with_isolated (fun () ->
      Obs.set_enabled false;
      f ())

let tests =
  [
    Alcotest.test_case "counter and gauge arithmetic" `Quick
      (with_clean (fun () ->
           let c = Obs.Metrics.counter "test.counter" in
           let g = Obs.Metrics.gauge "test.gauge" in
           (* disabled: updates are dropped *)
           Obs.Metrics.incr c;
           Obs.Metrics.set g 3.5;
           Alcotest.(check int) "disabled counter" 0 (Obs.Metrics.count c);
           Alcotest.(check (float 0.)) "disabled gauge" 0. (Obs.Metrics.value g);
           Obs.set_enabled true;
           Obs.Metrics.incr c;
           Obs.Metrics.add c 4;
           Obs.Metrics.set g 3.5;
           Alcotest.(check int) "enabled counter" 5 (Obs.Metrics.count c);
           Alcotest.(check (float 0.)) "enabled gauge" 3.5 (Obs.Metrics.value g);
           (* re-registration returns the same cell *)
           Obs.Metrics.incr (Obs.Metrics.counter "test.counter");
           Alcotest.(check int) "same cell" 6 (Obs.Metrics.count c);
           (* kind mismatch is rejected *)
           Alcotest.check_raises "kind mismatch"
             (Invalid_argument "Wampde_obs.Metrics.gauge: test.counter is not a gauge")
             (fun () -> ignore (Obs.Metrics.gauge "test.counter"));
           Obs.Metrics.reset ();
           Alcotest.(check int) "reset" 0 (Obs.Metrics.count c)));
    Alcotest.test_case "histogram statistics" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           let h = Obs.Metrics.histogram "test.hist" in
           List.iter (Obs.Metrics.observe h) [ 1.; 2.; 4.; 8. ];
           (* read back through the metrics JSON every manifest embeds *)
           let s =
             match Obs.Json.parse (Obs.Metrics.to_json ()) with
             | Ok j -> (
               match Option.bind (Obs.Json.member "histograms" j) (Obs.Json.member "test.hist") with
               | Some s -> s
               | None -> Alcotest.fail "test.hist missing from the metrics JSON")
             | Error m -> Alcotest.fail m
           in
           let num k = Option.bind (Obs.Json.member k s) Obs.Json.to_num in
           Alcotest.(check (option (float 0.))) "count" (Some 4.) (num "count");
           Alcotest.(check (option (float 1e-12))) "sum" (Some 15.) (num "sum");
           Alcotest.(check (option (float 1e-12))) "min" (Some 1.) (num "min");
           Alcotest.(check (option (float 1e-12))) "max" (Some 8.) (num "max");
           Alcotest.(check (option (float 1e-12))) "mean" (Some 3.75) (num "mean");
           Alcotest.(check (float 1e-12)) "Metrics.mean" 3.75 (Obs.Metrics.mean h);
           match Obs.Json.member "buckets" s with
           | Some (Obs.Json.Arr buckets) ->
             Alcotest.(check int) "log buckets separate powers of two" 4 (List.length buckets);
             List.iter
               (function
                 | Obs.Json.Arr [ lo; hi; n ] ->
                   Alcotest.(check (option (float 0.))) "one observation per bucket" (Some 1.)
                     (Obs.Json.to_num n);
                   Alcotest.(check bool) "bucket bounds ordered" true
                     (Obs.Json.to_num lo < Obs.Json.to_num hi)
                 | _ -> Alcotest.fail "bucket is not [lo, hi, n]")
               buckets
           | _ -> Alcotest.fail "no buckets array"));
    Alcotest.test_case "span nesting, parent ids and tree summary" `Quick
      (with_clean (fun () ->
           Obs.Span.start_recording ();
           let result =
             Obs.Span.span ~attrs:[ ("dim", Obs.Span.Int 4) ] "outer" @@ fun () ->
             Obs.Span.span "inner" (fun () -> 41) + 1
           in
           let records = Obs.Span.stop_recording () in
           Alcotest.(check int) "thunk result" 42 result;
           Alcotest.(check int) "two spans" 2 (List.length records);
           (* completion order: inner closes first *)
           let inner = List.nth records 0 and outer = List.nth records 1 in
           Alcotest.(check string) "inner name" "inner" inner.Obs.Span.name;
           Alcotest.(check string) "outer name" "outer" outer.Obs.Span.name;
           Alcotest.(check bool) "outer is root" true (outer.Obs.Span.parent = None);
           Alcotest.(check bool) "inner parented to outer" true
             (inner.Obs.Span.parent = Some outer.Obs.Span.id);
           Alcotest.(check bool) "timestamps nest" true
             (outer.Obs.Span.t_start <= inner.Obs.Span.t_start
             && inner.Obs.Span.t_stop <= outer.Obs.Span.t_stop);
           let summary = Obs.Span.tree_summary records in
           let contains needle =
             try ignore (Str.search_forward (Str.regexp_string needle) summary 0); true
             with Not_found -> false
           in
           Alcotest.(check bool) "summary lists both spans" true
             (contains "outer" && contains "inner")));
    Alcotest.test_case "span writer emits JSON lines" `Quick
      (with_clean (fun () ->
           let buf = Buffer.create 256 in
           Obs.Span.set_writer (Some (fun line -> Buffer.add_string buf line; Buffer.add_char buf '\n'));
           Obs.Span.span "written" (fun () -> ());
           Obs.Span.set_writer None;
           let out = Buffer.contents buf in
           let lines = String.split_on_char '\n' (String.trim out) in
           Alcotest.(check int) "start and stop lines" 2 (List.length lines);
           List.iter
             (fun line ->
               Alcotest.(check bool) "line is a JSON object" true
                 (String.length line > 1 && line.[0] = '{'
                 && line.[String.length line - 1] = '}'))
             lines;
           let contains needle hay =
             try ignore (Str.search_forward (Str.regexp_string needle) hay 0); true
             with Not_found -> false
           in
           Alcotest.(check bool) "span_start present" true
             (contains "\"type\":\"span_start\"" out);
           Alcotest.(check bool) "span_stop present" true
             (contains "\"type\":\"span_stop\"" out);
           Alcotest.(check bool) "name serialized" true (contains "\"written\"" out)));
    Alcotest.test_case "event subscribers dispatch in order" `Quick
      (with_clean (fun () ->
           Obs.set_enabled true;
           let seen = ref [] in
           let s1 = Obs.Events.subscribe (fun _ -> seen := "first" :: !seen) in
           let s2 = Obs.Events.subscribe (fun _ -> seen := "second" :: !seen) in
           Alcotest.(check bool) "active with subscribers" true (Obs.Events.active ());
           Obs.Events.emit
             (Obs.Events.Newton_done { solver = "test"; iterations = 3; residual = 0.; converged = true });
           Alcotest.(check (list string)) "subscription order" [ "first"; "second" ]
             (List.rev !seen);
           Obs.Events.unsubscribe s1;
           seen := [];
           Obs.Events.emit (Obs.Events.Step_accept { t = 1.; h = 0.5 });
           Alcotest.(check (list string)) "after unsubscribe" [ "second" ] (List.rev !seen);
           Obs.Events.unsubscribe s2;
           Alcotest.(check bool) "inactive without subscribers" false (Obs.Events.active ())));
    Alcotest.test_case "disabled event path allocates nothing" `Quick
      (with_clean (fun () ->
           (* the whole point of the [active ()] guard: with telemetry off,
              a hot loop over an instrumented call site must not build
              event records *)
           let w0 = Gc.minor_words () in
           for k = 0 to 9_999 do
             if Obs.Events.active () then
               Obs.Events.emit
                 (Obs.Events.Newton_done
                    { solver = "guard"; iterations = k; residual = 1e-3; converged = true })
           done;
           let dw = Gc.minor_words () -. w0 in
           Alcotest.(check bool)
             (Printf.sprintf "minor words allocated = %.0f" dw)
             true (dw < 256.)));
    Alcotest.test_case "an enabled incr in a scope already seen allocates nothing" `Quick
      (with_clean (fun () ->
           (* a counter bump looks up its scope's cell on every enabled
              update; only the first update in a scope adds one *)
           Obs.set_enabled true;
           let c = Obs.Metrics.counter "test.bump_alloc" in
           Obs.Scope.with_scope "outer" @@ fun () ->
           Obs.Scope.with_scope "inner" @@ fun () ->
           Obs.Metrics.incr c;
           let w0 = Gc.minor_words () in
           for _ = 1 to 1_000 do
             Obs.Metrics.incr c
           done;
           let dw = Gc.minor_words () -. w0 in
           Alcotest.(check (float 0.)) "minor words allocated" 0. dw;
           Alcotest.(check int) "count" 1_001 (Obs.Metrics.count c)));
    Alcotest.test_case "a scope entered on a spawned domain never changes the caller's" `Quick
      (fun () ->
        (* lockstep: the spawned domain enters its scope, the caller
           enters an inner one, the spawned domain leaves its scope,
           then the caller leaves.  With one shared label the caller
           would read "spawned" at its first look, and its exit would
           restore that stale label *)
        let entered = Atomic.make false and go = Atomic.make false in
        let left = Atomic.make false in
        let wait flag = while not (Atomic.get flag) do Domain.cpu_relax () done in
        Obs.Scope.with_scope "caller" @@ fun () ->
        let d =
          Domain.spawn (fun () ->
              let fresh = Obs.Scope.current () in
              let inside =
                Obs.Scope.with_scope "spawned" (fun () ->
                    Atomic.set entered true;
                    wait go;
                    Obs.Scope.current ())
              in
              Atomic.set left true;
              (fresh, inside))
        in
        wait entered;
        let first = Obs.Scope.current () in
        let inner =
          Obs.Scope.with_scope "inner" (fun () ->
              Atomic.set go true;
              wait left;
              Obs.Scope.current ())
        in
        let fresh, inside = Domain.join d in
        Alcotest.(check string) "caller, while the spawned scope is open" "caller" first;
        Alcotest.(check string) "caller's inner scope" "inner" inner;
        Alcotest.(check string) "caller, after both scopes closed" "caller"
          (Obs.Scope.current ());
        Alcotest.(check string) "a spawned domain starts unscoped" "" fresh;
        Alcotest.(check string) "the spawned domain's own scope" "spawned" inside);
    Alcotest.test_case "theta step raises a typed Step_failure" `Quick
      (with_clean (fun () ->
           (* x = c (1 + x^2) with huge c has no real solution, so the
              implicit step can never converge *)
           let dae =
             Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| 1e30 *. (1. +. (x.(0) *. x.(0))) |]) ()
           in
           match Transient.theta_step dae ~theta:0.5 ~t:0. ~h:1. [| 0. |] with
           | _ -> Alcotest.fail "expected Step_failure"
           | exception Transient.Step_failure fr ->
             Alcotest.(check (float 0.)) "failure time" 0. fr.Transient.t;
             Alcotest.(check (float 0.)) "failure step" 1. fr.Transient.h;
             Alcotest.(check bool) "iterations recorded" true (fr.Transient.iterations >= 0);
             Alcotest.(check bool) "residual recorded" true
               (Float.is_finite fr.Transient.residual_norm
               && fr.Transient.residual_norm > 0.);
             Alcotest.(check bool) "reason is descriptive" true
               (String.length (Printexc.to_string (Transient.Step_failure fr)) > 0
               && fr.Transient.reason <> None)));
    Alcotest.test_case "envelope run records solver work" `Slow
      (with_clean (fun () ->
           let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
           let orbit =
             Steady.Oscillator.find (Circuit.Vco.build p0) ~n1:15 ~period_hint:1.333
               (Circuit.Vco.initial_state p0)
           in
           let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
           let options = Wampde.Envelope.default_options ~n1:15 () in
           Obs.set_enabled true;
           Obs.Metrics.reset ();
           let accepts = ref 0 and phases = ref 0 in
           let sub =
             Obs.Events.subscribe (fun r ->
               match r.Obs.Events.event with
               | Obs.Events.Step_accept _ -> incr accepts
               | Obs.Events.Phase_condition { omega; t2 = _ } ->
                 incr phases;
                 Alcotest.(check bool) "physical frequency" true (omega > 0.)
               | _ -> ())
           in
           let res =
             Fun.protect
               ~finally:(fun () -> Obs.Events.unsubscribe sub)
               (fun () ->
                 Wampde.Envelope.simulate dae ~options ~t2_end:2. ~h2:0.5 ~init:orbit)
           in
           let count name = Obs.Metrics.count (Obs.Metrics.counter name) in
           Alcotest.(check bool) "newton iterations counted" true (count "newton.iterations" > 0);
           Alcotest.(check bool) "lu factorizations counted" true (count "lu.factor" > 0);
           Alcotest.(check int) "one accept event per slow step"
             (Array.length res.Wampde.Envelope.t2 - 1)
             !accepts;
           Alcotest.(check int) "one phase event per slow step" !accepts !phases;
           let json = Obs.Metrics.to_json () in
           Alcotest.(check bool) "metrics serialize" true
             (try
                ignore (Str.search_forward (Str.regexp_string "\"newton.iterations\"") json 0);
                true
              with Not_found -> false)));
    Alcotest.test_case "Perfetto instants carry the same fields as the event JSON" `Quick
      (with_clean (fun () ->
           let one_of_each =
             Obs.Events.
               [
                 Newton_done { solver = "envelope"; iterations = 3; residual = 1e-9; converged = true };
                 Step_accept { t = 1.5; h = 0.25 };
                 Step_reject { t = 1.5; h = 0.25; reason = "error \"norm\"" };
                 Step_retry { t = 1.5; h = 0.25; h_next = 0.125; reason = "newton" };
                 Phase_condition { omega = 0.75; t2 = 1.75 };
                 Strategy_escalated { solver = "polyalg"; from_ = "damped"; to_ = "trust_region" };
                 Health_warning
                   { monitor = "newton_rate"; value = 0.95; threshold = 0.9; t = nan; hint = "lower h2" };
               ]
           in
           let object_of what s =
             match Obs.Json.parse s with
             | Ok (Obs.Json.Obj kvs) -> kvs
             | _ -> Alcotest.failf "%s is not a JSON object: %s" what s
           in
           List.iter
             (fun e ->
               let r = { Obs.Events.t_s = Obs.now (); scope = "envelope.newton"; event = e } in
               let stream = object_of "event" (Obs.Events.to_json r) in
               let name =
                 match Option.bind (List.assoc_opt "event" stream) Obs.Json.to_str with
                 | Some n -> n
                 | None -> Alcotest.fail "event JSON has no event name"
               in
               begin
                 let trace = Obs.Trace_event.to_string ~spans:[] ~events:[ r ] () in
                 let args =
                   match Obs.Json.parse trace with
                   | Ok (Obs.Json.Arr entries) -> (
                     match
                       List.find_opt
                         (fun j -> Obs.Json.member "name" j = Some (Obs.Json.Str name))
                         entries
                     with
                     | Some j -> (
                       match Obs.Json.member "args" j with
                       | Some (Obs.Json.Obj kvs) -> kvs
                       | _ -> [])
                     | None -> Alcotest.failf "%s: no instant in the trace" name)
                   | _ -> Alcotest.failf "%s: trace is not a JSON array" name
                 in
                 let fields =
                   List.filter
                     (fun (k, _) -> not (List.mem k [ "type"; "t_s"; "scope"; "event" ]))
                     stream
                 in
                 Alcotest.(check string)
                   (name ^ ": Perfetto args = event fields")
                   (Obs.Json.to_string (Obs.Json.Obj fields))
                   (Obs.Json.to_string (Obs.Json.Obj args))
               end)
             one_of_each));
  ]

let suites = [ ("obs", tests) ]
