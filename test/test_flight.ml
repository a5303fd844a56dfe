(* The flight recorder: bounded ring semantics, dump shape (schema,
   provenance, reason-last timeline), what a real run leaves on the
   timeline, and postmortem rendering. *)

module Obs = Wampde_obs
module Json = Obs.Json

let with_flight f () =
  Obs.Metrics.with_isolated (fun () ->
      (* a previous suite may have left cells in the process-global
         ring — start from a fresh timeline *)
      Obs.Flight.clear ();
      Fun.protect
        ~finally:(fun () ->
          Obs.Flight.clear ();
          Obs.set_enabled false)
        f)

let parse_dump s =
  match Json.parse s with
  | Ok j -> j
  | Error m -> Alcotest.failf "dump does not parse: %s" m

(* the dump exactly as failing programs write it, through [Flight.write] *)
let dump ?argv ?subcommand ?git ?jobs ~kind ~message () =
  let path = Filename.temp_file "wampde-flight" ".json" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      match Obs.Flight.write ?argv ?subcommand ?git ?jobs ~path ~kind ~message () with
      | Ok p -> In_channel.with_open_bin p In_channel.input_all
      | Error m -> Alcotest.failf "write failed: %s" m)

(* ring occupancy as the dump reports it *)
let occupancy field =
  match Option.bind (Json.member field (parse_dump (dump ~kind:"probe" ~message:"" ()))) Json.to_num with
  | Some n -> int_of_float n
  | None -> Alcotest.failf "dump has no %s" field

let recorded () = occupancy "recorded"

let timeline j =
  match Json.member "timeline" j with
  | Some (Json.Arr l) -> l
  | _ -> Alcotest.fail "dump has no timeline array"

let entry_str k e = Option.bind (Json.member k e) Json.to_str

let ring_tests =
  [
    Alcotest.test_case "ring is bounded and drops oldest first" `Quick
      (with_flight (fun () ->
           let capacity = occupancy "capacity" in
           for i = 1 to capacity + 24 do
             Obs.Flight.note ~kind:"n" (Printf.sprintf "m%d" i)
           done;
           Alcotest.(check int) "recorded caps at capacity" capacity (recorded ());
           Alcotest.(check int) "dropped counts overwrites" 24 (occupancy "dropped");
           let j = parse_dump (dump ~kind:"boom" ~message:"end" ()) in
           let tl = timeline j in
           (* the surviving notes + the reason entry *)
           Alcotest.(check int) "timeline = recorded + reason" (capacity + 1) (List.length tl);
           Alcotest.(check (option string))
             "oldest surviving cell is the 25th note" (Some "m25")
             (entry_str "message" (List.hd tl))));
    Alcotest.test_case "clear empties the ring, events keep landing" `Quick
      (with_flight (fun () ->
           Obs.Flight.note ~kind:"n" "x";
           Alcotest.(check int) "note kept" 1 (recorded ());
           Obs.Flight.clear ();
           Alcotest.(check int) "cleared" 0 (recorded ());
           (* a fresh timeline: events keep landing *)
           Obs.set_enabled true;
           Obs.Events.emit (Obs.Events.Step_accept { t = 0.1; h = 0.1 });
           Alcotest.(check bool) "event kept" true (recorded () > 0)));
    Alcotest.test_case "notes are recorded even while telemetry is disabled" `Quick
      (with_flight (fun () ->
           Obs.set_enabled false;
           Obs.Flight.note ~kind:"fault" "injected nan";
           Alcotest.(check int) "note landed" 1 (recorded ())));
    Alcotest.test_case "solver events and macro-step snapshots land on the timeline" `Quick
      (with_flight (fun () ->
           Obs.set_enabled true;
           Obs.Events.emit
             (Obs.Events.Newton_done
                { solver = "envelope"; iterations = 1; residual = 1e-3; converged = true });
           Obs.Events.emit (Obs.Events.Step_accept { t = 0.5; h = 0.25 });
           let j = parse_dump (dump ~kind:"boom" ~message:"end" ()) in
           let tl = timeline j in
           let types = List.filter_map (entry_str "type") tl in
           Alcotest.(check bool) "has event entries" true (List.mem "event" types);
           Alcotest.(check bool) "step accept snapshotted" true (List.mem "snapshot" types);
           List.iter
             (fun e ->
               match Option.bind (Json.member "t_s" e) Json.to_num with
               | Some _ -> ()
               | None -> Alcotest.fail "timeline entry without t_s")
             tl));
  ]

let run_tests =
  [
    Alcotest.test_case "a VCO-A envelope run leaves no per-iteration cells" `Slow
      (with_flight (fun () ->
           let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
           Obs.set_enabled true;
           let orbit =
             Steady.Oscillator.find (Circuit.Vco.build p0) ~n1:15 ~period_hint:1.333
               (Circuit.Vco.initial_state p0)
           in
           let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
           let options = Wampde.Envelope.default_options ~n1:15 () in
           let res = Wampde.Envelope.simulate dae ~options ~t2_end:5. ~h2:0.5 ~init:orbit in
           let tl = timeline (parse_dump (dump ~kind:"probe" ~message:"end" ())) in
           let events = List.filter_map (entry_str "event") tl in
           let count name = List.length (List.filter (( = ) name) events) in
           List.iter
             (fun name -> Alcotest.(check int) (name ^ " cells") 0 (count name))
             [ "newton_iter"; "lu_factor"; "gmres_iter" ];
           (* the warmup's micro steps share the ring; the march's macro
              steps are its tail *)
           let steps = Array.length res.Wampde.Envelope.t2 - 1 in
           Alcotest.(check int) "every macro step's omega on the timeline" steps
             (count "phase_condition");
           Alcotest.(check bool) "one Newton solve per macro step at least" true
             (count "newton_done" >= steps)));
  ]

let dump_tests =
  [
    Alcotest.test_case "dump carries schema, provenance and reason-last timeline" `Quick
      (with_flight (fun () ->
           Obs.Flight.note ~kind:"fault" "injected linsolve";
           let j =
             parse_dump
               (dump
                  ~argv:[| "wampde_cli"; "envelope" |]
                  ~subcommand:"envelope" ~git:"abc123" ~jobs:2 ~kind:"step-failure"
                  ~message:"Newton failed" ())
           in
           let str k = Option.bind (Json.member k j) Json.to_str in
           Alcotest.(check (option string)) "schema" (Some "wampde.flightdump/1") (str "schema");
           Alcotest.(check (option string)) "subcommand" (Some "envelope") (str "subcommand");
           Alcotest.(check (option string)) "git" (Some "abc123") (str "git");
           Alcotest.(check bool) "metrics snapshot embedded" true
             (Json.member "metrics" j <> None);
           (match Json.member "reason" j with
            | Some r ->
              Alcotest.(check (option string)) "reason kind" (Some "step-failure")
                (entry_str "kind" r)
            | None -> Alcotest.fail "no reason object");
           let tl = timeline j in
           let last = List.nth tl (List.length tl - 1) in
           Alcotest.(check (option string))
             "failing event is the final timeline entry" (Some "Newton failed")
             (entry_str "message" last)));
    Alcotest.test_case "write + to_postmortem round trip renders reason last" `Quick
      (with_flight (fun () ->
           Obs.Flight.note ~kind:"fault" "injected nan (call 3)";
           let path = Filename.temp_file "wampde-flight" ".json" in
           Fun.protect
             ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
             (fun () ->
               (match
                  Obs.Flight.write ~subcommand:"envelope" ~path ~kind:"step-failure"
                    ~message:"residual diverged" ()
                with
               | Ok p -> Alcotest.(check string) "returns the path" path p
               | Error m -> Alcotest.failf "write failed: %s" m);
               let ic = open_in_bin path in
               let contents =
                 Fun.protect
                   ~finally:(fun () -> close_in_noerr ic)
                   (fun () -> really_input_string ic (in_channel_length ic))
               in
               match Obs.Flight.to_postmortem contents with
               | Error m -> Alcotest.failf "postmortem failed: %s" m
               | Ok text ->
                 let lines =
                   List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' text)
                 in
                 let contains sub s =
                   let n = String.length sub in
                   let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
                   go 0
                 in
                 Alcotest.(check bool) "mentions the reason" true
                   (contains "residual diverged" text);
                 Alcotest.(check bool) "mentions the injected fault" true
                   (contains "injected nan" text);
                 (* the last timeline line (before the doctor section) is
                    the failing event *)
                 let timeline_lines = List.filter (contains "step-failure") lines in
                 Alcotest.(check bool) "failing event rendered" true (timeline_lines <> []))));
    Alcotest.test_case "to_postmortem rejects garbage and foreign schemas" `Quick (fun () ->
        (match Obs.Flight.to_postmortem "{ not json" with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "garbage accepted");
        match Obs.Flight.to_postmortem "{\"schema\":\"wampde.run-report/1\"}" with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "run manifest accepted as flight dump");
  ]

let suites = [ ("flight", ring_tests @ dump_tests @ run_tests) ]
