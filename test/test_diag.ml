(* Diagnostics-layer tests: the JSON parser, scoped cost accounting,
   metric isolation, GC attribution on spans, the Chrome trace-event
   writer (balanced B/E pairs, parseable output under hostile
   strings) and the run-report manifest (check + markdown). *)
module Obs = Wampde_obs

let with_isolated f () = Obs.Metrics.with_isolated f

let check_ok what = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "%s: %s" what msg

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

let unit_tests =
  [
    Alcotest.test_case "json parser round-trips its own output" `Quick (fun () ->
        let j =
          check_ok "parse"
            (Obs.Json.parse
               {|{"a":[1,2.5,-3e2],"b":"x\n\"\\\u0007y","c":{"d":null,"e":true,"f":false},"g":[]}|})
        in
        (match Option.bind (Obs.Json.member "b" j) Obs.Json.to_str with
         | Some s -> Alcotest.(check string) "escapes decoded" "x\n\"\\\007y" s
         | None -> Alcotest.fail "member b missing");
        (match Obs.Json.member "a" j with
         | Some (Obs.Json.Arr [ Obs.Json.Num a; Obs.Json.Num b; Obs.Json.Num c ]) ->
           Alcotest.(check (float 1e-12)) "ints" 1. a;
           Alcotest.(check (float 1e-12)) "decimals" 2.5 b;
           Alcotest.(check (float 1e-12)) "exponents" (-300.) c
         | _ -> Alcotest.fail "member a wrong shape");
        List.iter
          (fun bad ->
            match Obs.Json.parse bad with
            | Ok _ -> Alcotest.failf "accepted malformed input %S" bad
            | Error _ -> ())
          [ "{"; "[1,]"; "{\"a\":}"; "nulll"; "\"unterminated"; "1 2"; "" ]);
    Alcotest.test_case "now is non-decreasing" `Quick (fun () ->
        let prev = ref (Obs.now ()) in
        for _ = 1 to 1000 do
          let t = Obs.now () in
          Alcotest.(check bool) "monotone" true (t >= !prev);
          prev := t
        done);
    Alcotest.test_case "scoped counters sum to the unscoped total" `Quick
      (with_isolated (fun () ->
           Obs.set_enabled true;
           let c = Obs.Metrics.counter "diag.work" in
           Obs.Metrics.incr c;
           (* the adds after each scope closes land in the enclosing
              bucket: "outer" after "inner", unscoped after "outer" *)
           Obs.Scope.with_scope "outer" (fun () ->
               Obs.Scope.with_scope "inner" (fun () -> Obs.Metrics.add c 100);
               Obs.Metrics.add c 10);
           Obs.Metrics.add c 1000;
           Alcotest.(check int) "total" 1111 (Obs.Metrics.count c);
           let scopes =
             match List.assoc_opt "diag.work" (Obs.Metrics.scoped_counters ()) with
             | Some s -> s
             | None -> Alcotest.fail "diag.work has no scoped buckets"
           in
           Alcotest.(check int) "sum over scopes equals total"
             (Obs.Metrics.count c)
             (List.fold_left (fun acc (_, n) -> acc + n) 0 scopes);
           Alcotest.(check (option int)) "unscoped bucket" (Some 1001)
             (List.assoc_opt "" scopes);
           Alcotest.(check (option int)) "outer bucket" (Some 10) (List.assoc_opt "outer" scopes);
           Alcotest.(check (option int)) "inner bucket" (Some 100)
             (List.assoc_opt "inner" scopes)));
    Alcotest.test_case "scope restores on exception" `Quick
      (with_isolated (fun () ->
           Obs.set_enabled true;
           let c = Obs.Metrics.counter "diag.after_raise" in
           (try Obs.Scope.with_scope "doomed" (fun () -> failwith "boom") with Failure _ -> ());
           Obs.Metrics.incr c;
           Alcotest.(check (option (list (pair string int)))) "scope popped"
             (Some [ ("", 1) ])
             (List.assoc_opt "diag.after_raise" (Obs.Metrics.scoped_counters ()))));
    Alcotest.test_case "with_isolated snapshots and restores" `Quick (fun () ->
        Obs.Metrics.with_isolated (fun () ->
            Obs.set_enabled true;
            let c = Obs.Metrics.counter "diag.isolated" in
            let g = Obs.Metrics.gauge "diag.isolated_gauge" in
            Obs.Scope.with_scope "layer" (fun () -> Obs.Metrics.add c 5);
            Obs.Metrics.set g 2.5;
            Obs.Metrics.with_isolated (fun () ->
                Alcotest.(check int) "inner sees zero" 0 (Obs.Metrics.count c);
                Alcotest.(check (float 0.)) "inner gauge zero" 0. (Obs.Metrics.value g);
                Alcotest.(check bool) "inner scoped buckets cleared" true
                  (List.assoc_opt "diag.isolated" (Obs.Metrics.scoped_counters ()) = None);
                Obs.set_enabled true;
                Obs.Metrics.add c 99);
            Alcotest.(check int) "outer value restored" 5 (Obs.Metrics.count c);
            Alcotest.(check (float 0.)) "outer gauge restored" 2.5 (Obs.Metrics.value g);
            Alcotest.(check (option int)) "scoped bucket restored" (Some 5)
              (Option.bind
                 (List.assoc_opt "diag.isolated" (Obs.Metrics.scoped_counters ()))
                 (List.assoc_opt "layer"));
            (* exceptions restore too *)
            (try
               Obs.Metrics.with_isolated (fun () ->
                   Obs.set_enabled true;
                   Obs.Metrics.add c 1234;
                   failwith "boom")
             with Failure _ -> ());
            Alcotest.(check int) "restored after exception" 5 (Obs.Metrics.count c)));
    Alcotest.test_case "gc attribution lands on spans" `Quick
      (with_isolated (fun () ->
           let (), boundaries, tree, perfetto =
             Testkit.traced ~gc:true (fun () ->
                 Obs.Span.span "alloc_heavy" (fun () ->
                     ignore (Sys.opaque_identity (Array.init 100_000 float_of_int))))
           in
           match boundaries with
           | [ Obs.Span.Start _; Obs.Span.Stop { gc = Some d; _ } ] ->
             Alcotest.(check bool) "allocation attributed" true
               (d.Obs.Span.minor_words +. d.Obs.Span.major_words -. d.Obs.Span.promoted_words
               >= 100_000.);
             let summary = Obs.Span.tree_summary tree in
             Alcotest.(check bool) "summary shows the allocation column, one call" true
               (Str.string_match (Str.regexp "== span summary ==\nalloc_heavy +1x .* w ") summary 0);
             (* Perfetto: the GC deltas are args of the E event *)
             Alcotest.(check bool) "E event carries alloc_words" true
               (match Testkit.json_exn perfetto with
                | Obs.Json.Arr [ _; _; _; e ] ->
                  Obs.Json.member "ph" e = Some (Obs.Json.Str "E")
                  && Option.bind (Obs.Json.member "args" e) (Obs.Json.member "alloc_words") <> None
                | _ -> false)
           | [ _; Obs.Span.Stop { gc = None; _ } ] -> Alcotest.fail "gc delta missing"
           | l -> Alcotest.failf "expected 1 span (2 boundaries), got %d boundaries" (List.length l)));
    Alcotest.test_case "trace exporter emits valid balanced events" `Quick
      (with_isolated (fun () ->
           Obs.set_enabled true;
           let (), _, _, out =
             Testkit.traced (fun () ->
                 Obs.Span.span "root" (fun () ->
                     Obs.Span.span "left" (fun () -> ());
                     Obs.Events.emit (Obs.Events.Step_accept { t = 0.5; h = 0.25 });
                     Obs.Span.span "right" (fun () ->
                         Obs.Events.emit (Obs.Events.Phase_condition { omega = 1.1; t2 = 0.5 })));
                 Obs.Span.span "second_root" (fun () -> ()))
           in
           let trace = check_ok "trace parses" (Obs.Json.parse out) in
           Testkit.assert_valid_trace trace;
           let entries = match trace with Obs.Json.Arr l -> l | _ -> [] in
           let instants = List.filter (fun e -> Obs.Json.member "ph" e = Some (Obs.Json.Str "i")) entries in
           Alcotest.(check int) "instants recorded" 2 (List.length instants);
           (* process_name + thread_name (single tid) + B/E pairs + instants *)
           Alcotest.(check int) "4 spans -> 4 B/E pairs + 2 metadata + 2 instants"
             (2 + (2 * 4) + 2)
             (List.length entries)));
    Alcotest.test_case "report manifest validates and renders" `Quick
      (with_isolated (fun () ->
           Obs.set_enabled true;
           let collector = Obs.Report.collect () in
           let res = small_envelope_run () in
           let steps = Obs.Report.finish collector in
           Alcotest.(check int) "one history entry per slow step"
             (Array.length res.Wampde.Envelope.t2 - 1)
             (List.length steps);
           List.iter
             (fun (s : Obs.Report.step) ->
               Alcotest.(check string) "fixed stepping only accepts" "accept" s.Obs.Report.outcome;
               Alcotest.(check bool) "omega filled from phase condition" true
                 (match s.Obs.Report.omega with Some o -> o > 0. | None -> false);
               Alcotest.(check bool) "newton work recorded" true
                 (s.Obs.Report.newton_iterations > 0))
             steps;
           let manifest =
             Obs.Report.manifest ~argv:[| "test"; "envelope" |] ~subcommand:"envelope"
               ~wall_s:1.5 ~steps ()
           in
           check_ok "manifest checks" (Obs.Report.check manifest);
           let md = check_ok "manifest renders" (Obs.Report.to_markdown manifest) in
           List.iter
             (fun needle ->
               Alcotest.(check bool) (Printf.sprintf "markdown contains %s" needle) true
                 (try
                    ignore (Str.search_forward (Str.regexp_string needle) md 0);
                    true
                  with Not_found -> false))
             [ "# wampde run report"; "## Solver work"; "## Scoped cost breakdown"; "## Step history"; "envelope.newton" ]));
    Alcotest.test_case "history counts the march's Newton work, not the orbit's" `Quick
      (with_isolated (fun () ->
           Obs.set_enabled true;
           (* the collector runs across the orbit solve, as the CLI's does *)
           let collector = Obs.Report.collect () in
           ignore (small_envelope_run ());
           let steps = Obs.Report.finish collector in
           let newton scope =
             match List.assoc_opt "newton.iterations" (Obs.Metrics.scoped_counters ()) with
             | Some buckets -> Option.value ~default:0 (List.assoc_opt scope buckets)
             | None -> 0
           in
           Alcotest.(check bool) "the orbit solve took Newton iterations" true
             (newton "oscillator" > 0);
           Alcotest.(check int) "history sum = envelope.newton's newton.iterations"
             (newton "envelope.newton")
             (List.fold_left (fun acc (s : Obs.Report.step) -> acc + s.Obs.Report.newton_iterations)
                0 steps)));
    Alcotest.test_case "report check rejects inconsistent scoped sums" `Quick (fun () ->
        let good =
          {|{"schema":"wampde.run-report/1","argv":["x"],"subcommand":"","git":null,"ocaml":"5.1.1","unix_time":0,"wall_s":1,"gc":{"minor_words":10,"promoted_words":1,"major_words":2,"minor_collections":1,"major_collections":0,"heap_words":5},"metrics":{"counters":{"lu.factor":7},"gauges":{},"histograms":{},"scoped":{"lu.factor":{"transient":3,"envelope.newton":4}}},"history":[{"t":0,"h":0.5,"omega":1.0,"newton_iterations":2,"residual":1e-9,"outcome":"accept","reason":null}]}|}
        in
        check_ok "consistent manifest accepted" (Obs.Report.check good);
        let tampered = Str.replace_first (Str.regexp_string "\"transient\":3") "\"transient\":2" good in
        (match Obs.Report.check tampered with
         | Error msg ->
           Alcotest.(check bool) "error names the counter" true
             (try
                ignore (Str.search_forward (Str.regexp_string "lu.factor") msg 0);
                true
              with Not_found -> false)
         | Ok () -> Alcotest.fail "tampered scoped sum accepted");
        (match Obs.Report.check "{\"schema\":\"wampde.run-report/1\"}" with
         | Error _ -> ()
         | Ok () -> Alcotest.fail "manifest without required fields accepted");
        match Obs.Report.check "not json at all" with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "non-JSON accepted");
  ]

(* End-to-end acceptance: a VCO-A envelope run traced + reported must
   give a balanced, schema-valid trace and a manifest whose scoped
   counters sum to the unscoped totals for the shared leaf counters. *)
let acceptance_tests =
  [
    Alcotest.test_case "envelope run yields valid trace and manifest" `Slow
      (with_isolated (fun () ->
           Obs.set_enabled true;
           let collector = Obs.Report.collect () in
           let t0 = Obs.now () in
           let (), _, _, trace = Testkit.traced ~gc:true (fun () -> ignore (small_envelope_run ())) in
           let wall_s = Obs.now () -. t0 in
           let steps = Obs.Report.finish collector in
           (* (a) the trace validates against the trace-event schema *)
           let trace = check_ok "trace parses" (Obs.Json.parse trace) in
           Testkit.assert_valid_trace trace;
           Alcotest.(check bool) "accept instants present" true
             (match trace with
              | Obs.Json.Arr l ->
                List.exists (fun e -> Obs.Json.member "name" e = Some (Obs.Json.Str "step_accept")) l
              | _ -> false);
           (* (b) the manifest's scoped counters are consistent *)
           let manifest = Obs.Report.manifest ~subcommand:"envelope" ~wall_s ~steps () in
           check_ok "manifest checks" (Obs.Report.check manifest);
           let scoped = Obs.Metrics.scoped_counters () in
           List.iter
             (fun name ->
               let total = Obs.Metrics.count (Obs.Metrics.counter name) in
               Alcotest.(check bool) (name ^ " was exercised") true (total > 0);
               match List.assoc_opt name scoped with
               | Some buckets ->
                 Alcotest.(check int)
                   (name ^ " sum-over-scopes equals total")
                   total
                   (List.fold_left (fun acc (_, n) -> acc + n) 0 buckets)
               | None -> Alcotest.failf "%s has no scoped buckets" name)
             [ "lu.factor"; "newton.iterations" ];
           (* gmres is not exercised by the small dense run, but its
              scoped invariant must hold vacuously *)
           Alcotest.(check (option (list (pair string int))))
             "gmres.iterations unused here" None
             (List.assoc_opt "gmres.iterations" scoped)));
  ]

(* Hostile-string properties: anything we serialize must come back out
   of a JSON parser, control characters and backslashes included. *)
let prop_tests =
  let open QCheck in
  let any_string = string in
  let parses what s =
    match Obs.Json.parse s with
    | Ok _ -> true
    | Error msg -> Test.fail_reportf "%s did not parse: %s\n%s" what msg s
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"event json parses for hostile reason strings" ~count:200 any_string
         (fun reason ->
           let line event = Obs.Events.to_json { Obs.Events.t_s = 0.; scope = reason; event } in
           parses "Step_reject" (line (Obs.Events.Step_reject { t = 1.; h = 0.5; reason }))
           && parses "Step_retry"
                (line (Obs.Events.Step_retry { t = 1.; h = 0.5; h_next = 0.25; reason }))
           && parses "Newton_done"
                (line
                   (Obs.Events.Newton_done
                      { solver = reason; iterations = 3; residual = nan; converged = true }))));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"span writer lines parse and round-trip hostile names" ~count:200
         any_string (fun name ->
           Obs.Metrics.with_isolated (fun () ->
               let lines = ref [] in
               Obs.Span.set_writer (Some (fun l -> lines := l :: !lines));
               Fun.protect
                 ~finally:(fun () -> Obs.Span.set_writer None)
                 (fun () ->
                   Obs.Span.span ~attrs:[ ("note", Obs.Span.Str name) ] name (fun () -> ()));
               List.for_all
                 (fun line ->
                   parses "writer line" line
                   &&
                   match Obs.Json.parse line with
                   | Ok j -> (
                     match Option.bind (Obs.Json.member "name" j) Obs.Json.to_str with
                     | Some got -> got = name
                     | None -> true (* span_stop carries the name too, but don't insist *))
                   | Error _ -> false)
                 !lines)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"trace-event export parses for hostile span names" ~count:200 any_string
         (fun name ->
           let buf = Buffer.create 256 in
           let p = Obs.Trace_event.start ~process_name:name (Buffer.add_string buf) in
           let attrs = [ ("s", Obs.Span.Str name); ("n", Obs.Span.Int 1) ] in
           Obs.Trace_event.span p
             (Obs.Span.Start { id = 0; parent = None; name; attrs; t_s = 0.; tid = None });
           Obs.Trace_event.span p
             (Obs.Span.Stop { id = 0; name; t_s = 1.; dur_s = 1.; gc = None; tid = None });
           Obs.Trace_event.instant p
             {
               Obs.Events.t_s = 0.5;
               scope = name;
               event = Obs.Events.Step_reject { t = 0.; h = 1.; reason = name };
             };
           Obs.Trace_event.finish p;
           parses "trace export" (Buffer.contents buf)));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"metrics json parses for hostile metric names" ~count:100 any_string
         (fun name ->
           Obs.Metrics.with_isolated (fun () ->
               Obs.set_enabled true;
               (* avoid kind clashes between iterations on the same name *)
               let c = Obs.Metrics.counter ("c." ^ name) in
               Obs.Scope.with_scope name (fun () -> Obs.Metrics.add c 3);
               Obs.Metrics.set (Obs.Metrics.gauge ("g." ^ name)) 1.25;
               parses "metrics json" (Obs.Metrics.to_json ()))));
  ]

let suites =
  [ ("diag", unit_tests @ prop_tests); ("diag-acceptance", acceptance_tests) ]
