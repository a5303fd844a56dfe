(* The serve subsystem: NDJSON protocol totality, round-robin
   scheduling with bit-exact preemption, warm caches, and typed
   termination of every accepted job — including under fault storms. *)

module Obs = Wampde_obs
module Json = Obs.Json
module Protocol = Serve.Protocol
module Server = Serve.Server
module Scheduler = Serve.Scheduler
module Journal = Serve.Journal
module Supervisor = Serve.Supervisor

(* ---------- helpers ---------- *)

let spool_counter = ref 0

let fresh_spool () =
  incr spool_counter;
  Printf.sprintf "serve-test-spool-%d" !spool_counter

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Sys.rmdir dir with Sys_error _ -> ()
  end

(* Run an in-memory server session over [lines]; returns the exit code
   and every response line.  EOF after the last line triggers the
   drain path, exactly like a scripted stdin batch.  [spool] keeps the
   session on an existing spool (and skips its cleanup) so tests can
   chain crashed and restarted daemons. *)
let run_server ?(quantum = 2) ?stall_timeout_s ?stop_requested ?spool
    ?(log = fun _ -> ()) lines =
  let input = ref lines in
  let read ~block:_ =
    match !input with
    | [] -> `Eof
    | l :: tl ->
      input := tl;
      `Line l
  in
  let out = ref [] in
  let spool, cleanup = match spool with Some s -> (s, false) | None -> (fresh_spool (), true) in
  let code =
    Server.run
      (Server.default_config ~quantum ~spool ?stall_timeout_s ?stop_requested ())
      ~read
      ~write:(fun l -> out := l :: !out)
      ~log
  in
  if cleanup then rm_rf spool;
  (code, List.rev !out)

let records_of lines = List.map Testkit.json_exn lines

let typ j = Option.bind (Json.member "type" j) Json.to_str |> Option.value ~default:""
let str k j = Option.bind (Json.member k j) Json.to_str
let num k j = Option.bind (Json.member k j) Json.to_num

let terminals_for id records =
  List.filter
    (fun j -> (typ j = "result" || typ j = "job-error") && str "id" j = Some id)
    records

let tiny_envelope ?(id = "e") ?(circuit = "vco-a") ?(n1 = 15) ?(solver = "auto") ?deadline_ms () =
  let deadline =
    match deadline_ms with
    | None -> ""
    | Some ms -> Printf.sprintf ",\"deadline_ms\":%g" ms
  in
  Printf.sprintf
    "{\"type\":\"job\",\"id\":\"%s\",\"circuit\":\"%s\",\"analysis\":\"envelope\",\"t_end\":1.5,\"rtol\":1e-3,\"n1\":%d,\"solver\":\"%s\"%s}"
    id circuit n1 solver deadline

(* ---------- protocol parsing ---------- *)

let check_error expected line =
  match Protocol.parse_request line with
  | Error { code; _ } -> Alcotest.(check string) line expected code
  | Ok _ -> Alcotest.failf "expected %s error for %s" expected line

let protocol_tests =
  [
    Alcotest.test_case "job request parses with defaults" `Quick (fun () ->
        match Protocol.parse_request (tiny_envelope ~id:"j1" ()) with
        | Ok (Protocol.Submit { id; circuit; analysis = Protocol.Envelope p; deadline_ms = None }) ->
          Alcotest.(check string) "id" "j1" id;
          Alcotest.(check string) "circuit" "vco-a" circuit;
          Alcotest.(check int) "n1" 15 p.n1;
          Alcotest.(check bool) "h2 defaulted" true (p.h2 = None);
          Alcotest.(check (float 1e-12)) "rtol" 1e-3 p.rtol
        | Ok _ -> Alcotest.fail "wrong request"
        | Error { message; _ } -> Alcotest.fail message);
    Alcotest.test_case "quasi request parses with defaults" `Quick (fun () ->
        match
          Protocol.parse_request
            "{\"type\":\"job\",\"id\":\"q\",\"circuit\":\"vco-a\",\"analysis\":\"quasiperiodic\",\"n2\":7}"
        with
        | Ok (Protocol.Submit { analysis = Protocol.Quasiperiodic p; _ }) ->
          Alcotest.(check int) "n2" 7 p.n2;
          Alcotest.(check (float 1e-12)) "p2 default" 40. p.p2;
          Alcotest.(check bool) "solver default auto" true (p.solver = Linalg.Structured.auto);
          (* the warm-up's second start and its two fields are gone: a
             request naming either is refused, not silently run *)
          List.iter
            (fun field ->
              match
                Protocol.parse_request
                  (Printf.sprintf
                     "{\"type\":\"job\",\"id\":\"q\",\"circuit\":\"vco-a\",\"analysis\":\"quasiperiodic\",\"%s\":0.5}"
                     field)
              with
              | Error { code; message } ->
                Alcotest.(check string) field "bad-field" code;
                let quoted = Str.regexp_string (Printf.sprintf "%S" field) in
                let names =
                  match Str.search_forward quoted message 0 with
                  | _ -> true
                  | exception Not_found -> false
                in
                Alcotest.(check bool) (message ^ " names " ^ field) true names
              | Ok _ -> Alcotest.failf "a request naming %s parsed" field)
            [ "t_warm"; "h2_warm" ]
        | Ok _ -> Alcotest.fail "wrong request"
        | Error { message; _ } -> Alcotest.fail message);
    Alcotest.test_case "quasi solver names parse to a strategy" `Quick (fun () ->
        let quasi solver =
          Printf.sprintf
            "{\"type\":\"job\",\"id\":\"q\",\"circuit\":\"vco-a\",\"analysis\":\"quasiperiodic\",\"n2\":7,\"solver\":\"%s\"}"
            solver
        in
        let strategy solver =
          match Protocol.parse_request (quasi solver) with
          | Ok (Protocol.Submit { analysis = Protocol.Quasiperiodic p; _ }) -> p.solver
          | Ok _ -> Alcotest.fail "wrong request"
          | Error { message; _ } -> Alcotest.fail message
        in
        (* "gmres" is the older name of the matrix-free path *)
        Alcotest.(check bool) "gmres" true (strategy "gmres" = Linalg.Structured.Krylov);
        Alcotest.(check bool) "auto" true (strategy "auto" = Linalg.Structured.auto);
        check_error "bad-value" (quasi "lu"));
    Alcotest.test_case "control requests parse" `Quick (fun () ->
        (match Protocol.parse_request "{\"type\":\"cancel\",\"id\":\"x\"}" with
        | Ok (Protocol.Cancel "x") -> ()
        | _ -> Alcotest.fail "cancel");
        (match Protocol.parse_request "{\"type\":\"metrics\"}" with
        | Ok Protocol.Metrics -> ()
        | _ -> Alcotest.fail "metrics");
        (match Protocol.parse_request "{\"type\":\"stats\"}" with
        | Ok Protocol.Stats -> ()
        | _ -> Alcotest.fail "stats");
        match Protocol.parse_request "{\"type\":\"shutdown\",\"drain\":false}" with
        | Ok (Protocol.Shutdown { drain = false }) -> ()
        | _ -> Alcotest.fail "shutdown");
    Alcotest.test_case "malformed lines give typed codes" `Quick (fun () ->
        check_error "bad-json" "{not json";
        check_error "not-object" "[1,2,3]";
        check_error "missing-type" "{\"id\":\"x\"}";
        check_error "unknown-type" "{\"type\":\"frobnicate\"}";
        check_error "missing-field"
          "{\"type\":\"job\",\"circuit\":\"vco-a\",\"analysis\":\"envelope\",\"t_end\":1}";
        check_error "bad-id"
          "{\"type\":\"job\",\"id\":\"a b!\",\"circuit\":\"vco-a\",\"analysis\":\"envelope\",\"t_end\":1}";
        check_error "bad-value"
          "{\"type\":\"job\",\"id\":\"x\",\"circuit\":\"vco-a\",\"analysis\":\"envelope\",\"t_end\":1,\"n1\":16}";
        check_error "bad-value"
          "{\"type\":\"job\",\"id\":\"x\",\"circuit\":\"vco-a\",\"analysis\":\"envelope\",\"t_end\":-2}";
        check_error "bad-field"
          "{\"type\":\"job\",\"id\":\"x\",\"circuit\":\"vco-a\",\"analysis\":\"envelope\",\"t_end\":\"ten\"}");
  ]

(* ---------- stats ---------- *)

let member_path path j =
  List.fold_left (fun acc k -> Option.bind acc (Json.member k)) (Some j) path

let stats_tests =
  [
    Alcotest.test_case "job_error carries the flight dump path only when given" `Quick
      (fun () ->
        let with_dump =
          Testkit.json_exn
            (Protocol.job_error ~flight:"spool/x.flight.json" ~id:"x" ~kind:"step-failure"
               ~message:"m" ~quanta:3 ())
        in
        Alcotest.(check (option string)) "flight path embedded" (Some "spool/x.flight.json")
          (str "flight" with_dump);
        let plain = Testkit.json_exn (Protocol.job_error ~id:"x" ~kind:"k" ~message:"m" ~quanta:1 ()) in
        Alcotest.(check (option string)) "absent without a dump" None (str "flight" plain));
    Alcotest.test_case "stats_line groups counters by subsystem" `Quick (fun () ->
        let j =
          Testkit.json_exn
            (Protocol.stats_line
               ~counters:
                 [
                   ("cache.orbit.hits", 3);
                   ("health.warnings", 2);
                   ("health.warnings.newton_stall", 2);
                   ("pool.chunks", 5);
                   ("serve.jobs.completed", 4);
                   ("unrelated.counter", 9);
                 ]
               ~gauges:[ ("pool.balance", 0.75) ])
        in
        Alcotest.(check string) "type" "stats" (typ j);
        let n path = Option.bind (member_path path j) Json.to_num in
        Alcotest.(check (option (float 0.))) "orbit hits" (Some 3.) (n [ "cache"; "orbit"; "hits" ]);
        Alcotest.(check (option (float 0.))) "pool counter" (Some 5.) (n [ "pool"; "chunks" ]);
        Alcotest.(check (option (float 1e-12))) "pool gauge" (Some 0.75) (n [ "pool"; "balance" ]);
        Alcotest.(check (option (float 0.))) "health total" (Some 2.) (n [ "health"; "warnings" ]);
        Alcotest.(check (option (float 0.))) "per-monitor breakdown" (Some 2.)
          (n [ "health"; "monitors"; "newton_stall" ]);
        Alcotest.(check (option (float 0.))) "scheduler counters" (Some 4.)
          (n [ "serve"; "jobs.completed" ]);
        Alcotest.(check (option (float 0.))) "ungrouped counters stay out" None
          (n [ "unrelated"; "counter" ]));
    Alcotest.test_case "server answers stats with the grouped snapshot" `Quick (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        let code, out =
          run_server ~quantum:2
            [
              tiny_envelope ~id:"st" ();
              "{\"type\":\"stats\"}";
              "{\"type\":\"shutdown\",\"drain\":true}";
            ]
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        match List.filter (fun j -> typ j = "stats") records with
        | [ s ] ->
          List.iter
            (fun group ->
              Alcotest.(check bool) (group ^ " group present") true
                (Json.member group s <> None))
            [ "cache"; "pool"; "health"; "serve" ];
          Alcotest.(check bool) "serve group saw the submission" true
            (match member_path [ "serve"; "jobs.submitted" ] s with
             | Some _ -> true
             | None -> false)
        | l -> Alcotest.failf "expected one stats record, got %d" (List.length l));
  ]

(* ---------- protocol fuzz ---------- *)

let valid_lines =
  [
    tiny_envelope ~id:"f.uzz-1" ();
    "{\"type\":\"job\",\"id\":\"q\",\"circuit\":\"vco-a\",\"analysis\":\"quasiperiodic\",\"n1\":15,\"n2\":7}";
    "{\"type\":\"cancel\",\"id\":\"f.uzz-1\"}";
    "{\"type\":\"metrics\"}";
    "{\"type\":\"shutdown\",\"drain\":true}";
  ]

(* Garbage that looks almost like protocol traffic: valid requests
   truncated, spliced together, or peppered with random bytes. *)
let mangled_gen =
  QCheck.Gen.(
    let base = oneofl valid_lines in
    let mangle =
      oneof
        [
          (* truncate *)
          (base >>= fun s -> int_bound (String.length s) >|= fun n -> String.sub s 0 n);
          (* splice two requests on one line *)
          (base >>= fun a -> base >|= fun b -> a ^ b);
          (* random byte injection *)
          ( base >>= fun s ->
            int_bound (max 0 (String.length s - 1)) >>= fun i ->
            char >|= fun c ->
            let b = Bytes.of_string s in
            Bytes.set b i c;
            Bytes.to_string b );
          (* arbitrary printable noise *)
          string_size ~gen:printable (int_bound 80);
        ]
    in
    mangle)

let fuzz_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:500 ~name:"parser is total on mangled input"
         (QCheck.make mangled_gen) (fun line ->
           match Protocol.parse_request line with
           | Ok _ -> true
           | Error { code; message } -> code <> "" && message <> ""
           | exception e ->
             QCheck.Test.fail_reportf "parse_request raised %s on %S" (Printexc.to_string e) line));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:8 ~name:"server survives garbage and keeps serving"
         (QCheck.make (QCheck.Gen.list_size (QCheck.Gen.int_range 1 5) mangled_gen))
         (fun garbage ->
           (* drop mangled lines that still parse as requests — this
              case wants pure garbage followed by a valid job *)
           (* blank lines are ignored (no error response), so drop
              those too *)
           let garbage =
             List.filter
               (fun l -> String.trim l <> "" && Result.is_error (Protocol.parse_request l))
               garbage
           in
           let code, out =
             run_server (garbage @ [ tiny_envelope ~id:"after-garbage" () ])
           in
           let records = records_of out in
           let errors = List.filter (fun j -> typ j = "error") records in
           code = 0
           && List.length errors = List.length garbage
           && List.exists (fun j -> typ j = "result") (terminals_for "after-garbage" records)));
  ]

(* ---------- end-to-end scheduling ---------- *)

let scheduling_tests =
  [
    Alcotest.test_case "two jobs interleave and both finish valid manifests" `Slow (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        let code, out =
          run_server ~quantum:2
            [
              tiny_envelope ~id:"rr1" ();
              tiny_envelope ~id:"rr2" ();
              "{\"type\":\"shutdown\",\"drain\":true}";
            ]
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        List.iter
          (fun id ->
            match terminals_for id records with
            | [ r ] ->
              Alcotest.(check string) "terminal kind" "result" (typ r);
              Alcotest.(check bool) "preempted at least once" true
                (match num "preemptions" r with Some p -> p >= 1. | None -> false);
              (* the embedded manifest must be a valid run report *)
              let m =
                match Json.member "manifest" r with
                | Some m -> m
                | None -> Alcotest.fail "result without manifest"
              in
              let schema = Option.bind (Json.member "schema" m) Json.to_str in
              Alcotest.(check (option string)) "manifest schema"
                (Some "wampde.run-report/1") schema
            | l -> Alcotest.failf "%s: %d terminal records" id (List.length l))
          [ "rr1"; "rr2" ];
        (* the two jobs' stream records interleave: rr2 starts before
           rr1 finishes *)
        let order =
          List.filter_map
            (fun j ->
              match (typ j, str "job" j) with
              | ("start" | "done"), Some job -> Some (typ j ^ ":" ^ job)
              | _ -> None)
            records
        in
        let pos x = ref (-1) |> fun r ->
          List.iteri (fun i e -> if e = x && !r < 0 then r := i) order;
          !r
        in
        Alcotest.(check bool) "rr2 starts before rr1 is done" true
          (pos "start:rr2" < pos "done:rr1"));
    Alcotest.test_case "preempted results match an unpreempted run bitwise" `Slow (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        let final_omega quantum =
          let _, out =
            run_server ~quantum
              [ tiny_envelope ~id:"bit" (); "{\"type\":\"shutdown\",\"drain\":true}" ]
          in
          let records = records_of out in
          match terminals_for "bit" records with
          | [ r ] when typ r = "result" -> (num "omega_end" r, num "preemptions" r)
          | _ -> Alcotest.fail "no result"
        in
        let omega_sliced, pre_sliced = final_omega 1 in
        let omega_whole, pre_whole = final_omega 1_000_000 in
        Alcotest.(check bool) "sliced run was preempted" true (pre_sliced >= Some 1.);
        Alcotest.(check (option (float 0.))) "preemption count differs" (Some 0.) pre_whole;
        (* %.10g round-trips through the protocol: bitwise equality of
           the printed values is exact equality at that precision *)
        Alcotest.(check (option (float 0.))) "omega_end identical" omega_whole omega_sliced);
    Alcotest.test_case "cancel terminates a queued job with a typed error" `Quick (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        let code, out =
          run_server ~quantum:2
            [
              tiny_envelope ~id:"keep" ();
              tiny_envelope ~id:"drop" ();
              "{\"type\":\"cancel\",\"id\":\"drop\"}";
              "{\"type\":\"cancel\",\"id\":\"no-such\"}";
              "{\"type\":\"shutdown\",\"drain\":true}";
            ]
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        (match terminals_for "drop" records with
        | [ r ] ->
          Alcotest.(check string) "kind" "job-error" (typ r);
          Alcotest.(check (option string)) "cancelled" (Some "cancelled") (str "kind" r)
        | l -> Alcotest.failf "drop: %d terminals" (List.length l));
        (match terminals_for "keep" records with
        | [ r ] -> Alcotest.(check string) "keep completes" "result" (typ r)
        | l -> Alcotest.failf "keep: %d terminals" (List.length l));
        Alcotest.(check bool) "unknown cancel errors" true
          (List.exists
             (fun j -> typ j = "error" && str "code" j = Some "unknown-id")
             records));
    Alcotest.test_case "non-drain shutdown aborts queued jobs" `Quick (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        let code, out =
          run_server ~quantum:2
            [ tiny_envelope ~id:"ab1" (); "{\"type\":\"shutdown\",\"drain\":false}" ]
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        match terminals_for "ab1" records with
        | [ r ] ->
          Alcotest.(check string) "kind" "job-error" (typ r);
          Alcotest.(check (option string)) "aborted" (Some "aborted") (str "kind" r)
        | l -> Alcotest.failf "ab1: %d terminals" (List.length l));
    Alcotest.test_case "duplicate and unknown submissions are rejected" `Quick (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        let code, out =
          run_server ~quantum:2
            [
              tiny_envelope ~id:"dup" ();
              tiny_envelope ~id:"dup" ();
              tiny_envelope ~id:"mars" ~circuit:"vco-mars" ();
              "{\"type\":\"shutdown\",\"drain\":true}";
            ]
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        let code_of c = List.exists (fun j -> typ j = "error" && str "code" j = Some c) records in
        Alcotest.(check bool) "duplicate-id" true (code_of "duplicate-id");
        Alcotest.(check bool) "unknown-circuit" true (code_of "unknown-circuit");
        Alcotest.(check int) "dup ran once" 1 (List.length (terminals_for "dup" records)));
  ]

(* ---------- warm caches ---------- *)

let cache_tests =
  [
    Alcotest.test_case "repeated krylov jobs agree bit for bit" `Slow (fun () ->
        (* each job builds its own preconditioners, so the second job
           repeats the first's solve: only the orbit is shared *)
        Obs.Metrics.with_isolated @@ fun () ->
        let code, out =
          run_server ~quantum:4
            [
              tiny_envelope ~id:"warm1" ~solver:"krylov" ();
              tiny_envelope ~id:"warm2" ~solver:"krylov" ();
              "{\"type\":\"shutdown\",\"drain\":true}";
            ]
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        let answer id =
          match terminals_for id records with
          | [ r ] ->
            Alcotest.(check string) (id ^ " result") "result" (typ r);
            (num "omega_end" r, num "t2_end" r, num "steps" r)
          | l -> Alcotest.failf "%s: %d terminals" id (List.length l)
        in
        (* %.10g round-trips through the protocol: equal printed values
           are equal at that precision *)
        Alcotest.(check (triple (option (float 0.)) (option (float 0.)) (option (float 0.))))
          "same omega_end, t2_end and steps" (answer "warm1") (answer "warm2");
        let counters = Obs.Metrics.counters () in
        let count name = Option.value ~default:0 (List.assoc_opt name counters) in
        Alcotest.(check bool) "orbit hits > 0" true (count "cache.orbit.hits" > 0));
    Alcotest.test_case "one warm-up transient serves a circuit at every n1" `Slow (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        let code, out =
          run_server
            [
              tiny_envelope ~id:"n15" ~n1:15 ();
              tiny_envelope ~id:"n17" ~n1:17 ();
              tiny_envelope ~id:"n15-again" ~n1:15 ();
              "{\"type\":\"shutdown\",\"drain\":true}";
            ]
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        List.iter
          (fun id ->
            match terminals_for id records with
            | [ r ] -> Alcotest.(check string) (id ^ " result") "result" (typ r)
            | l -> Alcotest.failf "%s: %d terminals" id (List.length l))
          [ "n15"; "n17"; "n15-again" ];
        let counters = Obs.Metrics.counters () in
        let count name = Option.value ~default:0 (List.assoc_opt name counters) in
        (* 8 warm-up periods at 30 steps each, once for both n1, and
           one 50-step monodromy transient per n1 for the stability
           check *)
        Alcotest.(check int) "transient steps" 340 (count "transient.steps");
        Alcotest.(check int) "orbit misses, one per (circuit, n1)" 2 (count "cache.orbit.misses");
        (* every other quantum (resumes and the repeat) hits *)
        Alcotest.(check int) "orbit hits" (count "serve.quanta" - 2) (count "cache.orbit.hits"));
    Alcotest.test_case "quasi job without a solver matches dense within 1e-8" `Slow (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        let quasi ~id solver =
          Printf.sprintf
            "{\"type\":\"job\",\"id\":\"%s\",\"circuit\":\"vco-a\",\"analysis\":\"quasiperiodic\",\"n1\":15,\"n2\":7%s}"
            id solver
        in
        let code, out =
          run_server
            [
              quasi ~id:"q-default" "";
              quasi ~id:"q-dense" ",\"solver\":\"dense\"";
              "{\"type\":\"shutdown\",\"drain\":true}";
            ]
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        let omega id =
          match terminals_for id records with
          | [ r ] when typ r = "result" -> (
            match num "omega_end" r with Some w -> w | None -> Alcotest.failf "%s: no omega_end" id)
          | l -> Alcotest.failf "%s: %d terminals" id (List.length l)
        in
        let w_default = omega "q-default" and w_dense = omega "q-dense" in
        Alcotest.(check bool)
          (Printf.sprintf "omega_end %.17g vs dense %.17g" w_default w_dense)
          true
          (Float.abs (w_default -. w_dense) <= 1e-8 *. Float.abs w_dense);
        (* 427 unknowns: the default ran matrix-free, the dense twin factored *)
        let counters = Obs.Metrics.counters () in
        let count name = Option.value ~default:0 (List.assoc_opt name counters) in
        Alcotest.(check bool) "default solve used GMRES" true (count "gmres.solves" > 0));
    Alcotest.test_case "a quasi job over three control periods refines once and agrees" `Slow
      (fun () ->
        (* p2 = 120, n2 = 21: the warm-up's slice-aligned step (120/21)
           is too coarse, so the march is refined once to 60/21, and the
           job's mean frequency is the one-period job's *)
        Obs.Metrics.with_isolated @@ fun () ->
        let code, out =
          run_server
            [
              "{\"type\":\"job\",\"id\":\"q40\",\"circuit\":\"vco-a\",\"analysis\":\"quasiperiodic\",\"n1\":15,\"n2\":7}";
              "{\"type\":\"job\",\"id\":\"q120\",\"circuit\":\"vco-a\",\"analysis\":\"quasiperiodic\",\"n1\":15,\"n2\":21,\"p2\":120}";
              "{\"type\":\"shutdown\",\"drain\":true}";
            ]
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        let omega id =
          match terminals_for id records with
          | [ r ] when typ r = "result" -> (
            match num "omega_end" r with Some w -> w | None -> Alcotest.failf "%s: no omega_end" id)
          | l -> Alcotest.failf "%s: %d terminals" id (List.length l)
        in
        let w40 = omega "q40" and w120 = omega "q120" in
        Alcotest.(check bool)
          (Printf.sprintf "omega_end %.17g vs one period %.17g" w120 w40)
          true
          (Float.abs (w120 -. w40) <= 1e-10 *. w40);
        let counters = Obs.Metrics.counters () in
        Alcotest.(check (option int)) "one refinement" (Some 1)
          (List.assoc_opt "quasiperiodic.refinements" counters));
  ]

(* ---------- fault storms ---------- *)

let fault_tests =
  [
    Alcotest.test_case "seeded fault storm: every job ends typed, daemon exits 0" `Slow
      (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        Fault.with_armed "linsolve%0.05,nan%0.02,ckpt-trunc%0.2,seed=11" @@ fun () ->
        let ids = [ "s1"; "s2"; "s3" ] in
        let code, out =
          run_server ~quantum:2
            (List.map (fun id -> tiny_envelope ~id ()) ids
            @ [ "{\"type\":\"shutdown\",\"drain\":true}" ])
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        List.iter
          (fun id ->
            match terminals_for id records with
            | [ r ] ->
              let t = typ r in
              Alcotest.(check bool)
                (id ^ " terminal is result or typed job-error")
                true
                (t = "result" || (t = "job-error" && str "kind" r <> None))
            | l -> Alcotest.failf "%s: %d terminal records" id (List.length l))
          ids;
        Alcotest.(check bool) "bye record present" true
          (List.exists (fun j -> typ j = "bye") records));
    Alcotest.test_case "failing job attaches a flight dump in the spool" `Quick (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        Fault.with_armed "nan%1,seed=3" @@ fun () ->
        (* keep the spool alive until the dump has been inspected, so
           run the session inline instead of via run_server *)
        let input =
          ref [ tiny_envelope ~id:"fd1" (); "{\"type\":\"shutdown\",\"drain\":true}" ]
        in
        let read ~block:_ =
          match !input with
          | [] -> `Eof
          | l :: tl ->
            input := tl;
            `Line l
        in
        let out = ref [] in
        let spool = fresh_spool () in
        Fun.protect ~finally:(fun () -> rm_rf spool) @@ fun () ->
        let code =
          Server.run
            (Server.default_config ~quantum:2 ~spool ())
            ~read
            ~write:(fun l -> out := l :: !out)
            ~log:(fun _ -> ())
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of (List.rev !out) in
        match terminals_for "fd1" records with
        | [ r ] ->
          Alcotest.(check string) "typed failure" "job-error" (typ r);
          (match str "flight" r with
          | Some p ->
            Alcotest.(check bool) "per-job dump name" true (Filename.check_suffix p ".flight.json");
            Alcotest.(check bool) "dump file exists" true (Sys.file_exists p);
            let ic = open_in_bin p in
            let contents =
              Fun.protect
                ~finally:(fun () -> close_in_noerr ic)
                (fun () -> really_input_string ic (in_channel_length ic))
            in
            (match Obs.Flight.to_postmortem contents with
            | Ok text ->
              Alcotest.(check bool) "postmortem names the serve analysis" true
                (let sub = "serve:envelope" in
                 let n = String.length sub in
                 let rec go i =
                   i + n <= String.length text && (String.sub text i n = sub || go (i + 1))
                 in
                 go 0)
            | Error m -> Alcotest.failf "postmortem failed: %s" m)
          | None -> Alcotest.fail "job-error without a flight path")
        | l -> Alcotest.failf "fd1: %d terminal records" (List.length l));
  ]

(* ---------- job journal ---------- *)

let with_spool f =
  let spool = fresh_spool () in
  Unix.mkdir spool 0o755;
  Fun.protect ~finally:(fun () -> rm_rf spool) (fun () -> f spool)

let journal_tests =
  [
    Alcotest.test_case "journal round-trips transitions and finds orphans" `Quick (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        with_spool @@ fun spool ->
        let j = Journal.open_ ~spool in
        let put id state = Journal.append j { Journal.id; state } in
        put "j1" (Journal.Accepted { request = "{\"r\":1}" });
        put "j2" (Journal.Accepted { request = "{\"r\":2}" });
        put "j1" Journal.Running;
        put "j1" Journal.Checkpointed;
        put "j2" Journal.Running;
        put "j2" Journal.Done;
        put "j3" (Journal.Accepted { request = "{\"r\":3}" });
        put "j3" Journal.Running;
        put "j3" (Journal.Error { kind = "nan" });
        Journal.close j;
        let records, warnings = Journal.replay ~spool in
        Alcotest.(check int) "no warnings" 0 (List.length warnings);
        Alcotest.(check int) "all frames replayed" 9 (List.length records);
        match Journal.orphans records with
        | [ o ] ->
          Alcotest.(check string) "orphan id" "j1" o.Journal.id;
          Alcotest.(check string) "request preserved verbatim" "{\"r\":1}" o.Journal.request;
          Alcotest.(check string) "last state" "checkpointed" (Journal.state_name o.Journal.last)
        | l -> Alcotest.failf "%d orphans" (List.length l));
    Alcotest.test_case "a torn tail frame is dropped with a warning" `Quick (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        with_spool @@ fun spool ->
        let j = Journal.open_ ~spool in
        Journal.append j { Journal.id = "a"; state = Journal.Accepted { request = "{}" } };
        Journal.append j { Journal.id = "a"; state = Journal.Running };
        Journal.close j;
        let p = Filename.concat spool "journal.wj" in
        Unix.truncate p ((Unix.stat p).Unix.st_size - 3);
        let records, warnings = Journal.replay ~spool in
        Alcotest.(check int) "one surviving record" 1 (List.length records);
        Alcotest.(check bool) "tail warning" true (warnings <> []);
        (* the torn transition is gone but the job is still recoverable *)
        match Journal.orphans records with
        | [ o ] -> Alcotest.(check string) "orphan survives" "a" o.Journal.id
        | l -> Alcotest.failf "%d orphans" (List.length l));
    Alcotest.test_case "a corrupted tail frame fails its CRC and is dropped" `Quick (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        with_spool @@ fun spool ->
        let j = Journal.open_ ~spool in
        Journal.append j { Journal.id = "a"; state = Journal.Accepted { request = "{}" } };
        Journal.append j { Journal.id = "a"; state = Journal.Done };
        Journal.close j;
        let p = Filename.concat spool "journal.wj" in
        let ic = open_in_bin p in
        let s = really_input_string ic (in_channel_length ic) in
        close_in ic;
        let b = Bytes.of_string s in
        let last = Bytes.length b - 1 in
        Bytes.set b last (Char.chr (Char.code (Bytes.get b last) lxor 0xff));
        let oc = open_out_bin p in
        output_bytes oc b;
        close_out oc;
        let records, warnings = Journal.replay ~spool in
        Alcotest.(check int) "only the intact frame" 1 (List.length records);
        Alcotest.(check bool) "CRC warning" true (warnings <> []));
    Alcotest.test_case "journal-trunc fault tears an append like a crash" `Quick (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        Fault.with_armed "journal-trunc@2" @@ fun () ->
        with_spool @@ fun spool ->
        let j = Journal.open_ ~spool in
        Journal.append j { Journal.id = "k"; state = Journal.Accepted { request = "{}" } };
        Journal.append j { Journal.id = "k"; state = Journal.Running };
        (* lands behind the torn frame: unreachable, like post-crash garbage *)
        Journal.append j { Journal.id = "k"; state = Journal.Done };
        Journal.close j;
        let records, warnings = Journal.replay ~spool in
        Alcotest.(check int) "only the pre-fault frame" 1 (List.length records);
        Alcotest.(check bool) "torn-tail warning" true (warnings <> []);
        match Journal.orphans records with
        | [ o ] -> Alcotest.(check string) "job still recoverable" "k" o.Journal.id
        | l -> Alcotest.failf "%d orphans" (List.length l));
    Alcotest.test_case "a wampde.journal/1 spool still replays its orphans" `Quick (fun () ->
        (* a spool written before the attempt field was dropped: a /1
           header and frames that carry "attempt" *)
        Obs.Metrics.with_isolated @@ fun () ->
        with_spool @@ fun spool ->
        let frame sections =
          let payload = Checkpoint.encode sections in
          let b = Buffer.create 64 in
          let u32 v = Buffer.add_int32_le b (Int32.of_int v) in
          Buffer.add_string b "WJR1";
          u32 (Bytes.length payload);
          Buffer.add_int32_le b (Checkpoint.crc32 payload);
          Buffer.add_bytes b payload;
          Buffer.contents b
        in
        let v1 id state extra =
          frame
            ([
               ("id", Checkpoint.Text id);
               ("state", Checkpoint.Text state);
               ("attempt", Checkpoint.Scalar 1.);
             ]
            @ extra)
        in
        let accepted id =
          v1 id "accepted" [ ("request", Checkpoint.Text (tiny_envelope ~id ())) ]
        in
        let oc = open_out_bin (Filename.concat spool "journal.wj") in
        List.iter (output_string oc)
          [
            frame
              [
                ("schema", Checkpoint.Text "wampde.journal/1"); ("version", Checkpoint.Scalar 1.);
              ];
            accepted "old";
            accepted "fin";
            v1 "warm" "accepted"
              [
                ( "request",
                  Checkpoint.Text
                    "{\"type\":\"job\",\"id\":\"warm\",\"circuit\":\"vco-a\",\"analysis\":\"quasiperiodic\",\"t_warm\":200}"
                );
              ];
            v1 "old" "running" [];
            v1 "fin" "running" [];
            v1 "fin" "done" [];
          ];
        close_out oc;
        let records, warnings = Journal.replay ~spool in
        Alcotest.(check (list string)) "no warnings" [] warnings;
        Alcotest.(check int) "every frame replayed" 6 (List.length records);
        Alcotest.(check (list string)) "orphans" [ "old"; "warm" ]
          (List.map (fun (o : Journal.orphan) -> o.id) (Journal.orphans records));
        (* a daemon on the old spool re-runs the orphan, appending /2
           frames behind the /1 header, and refuses the request that
           names a removed field with a typed error *)
        let code, out = run_server ~spool [ "{\"type\":\"shutdown\",\"drain\":true}" ] in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        (match List.find_opt (fun j -> typ j = "recovered") records with
        | Some r ->
          Alcotest.(check (option string)) "recovered id" (Some "old") (str "id" r);
          Alcotest.(check bool) "no attempt field" true (Json.member "attempt" r = None)
        | None -> Alcotest.fail "no recovered record");
        (match terminals_for "old" records with
        | [ r ] when typ r = "result" -> ()
        | l -> Alcotest.failf "old after restart: %d terminals" (List.length l));
        (match List.filter (fun j -> str "id" j = Some "warm") records with
        | [ r ] when typ r = "error" ->
          Alcotest.(check (option string)) "refused" (Some "bad-field") (str "code" r)
        | l -> Alcotest.failf "warm after restart: %d records" (List.length l));
        let records, warnings = Journal.replay ~spool in
        Alcotest.(check (list string)) "no warnings after the restart" [] warnings;
        Alcotest.(check int) "no orphan left" 0 (List.length (Journal.orphans records)));
  ]

(* ---------- supervision: recovery, watchdog, typed failures ---------- *)

let supervision_tests =
  [
    Alcotest.test_case "kill-9 recovery resumes bitwise from journal + checkpoint" `Slow
      (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        let omega_ref =
          let _, out =
            run_server ~quantum:1_000_000
              [ tiny_envelope ~id:"cr" (); "{\"type\":\"shutdown\",\"drain\":true}" ]
          in
          match terminals_for "cr" (records_of out) with
          | [ r ] when typ r = "result" -> num "omega_end" r
          | _ -> Alcotest.fail "no reference result"
        in
        with_spool @@ fun spool ->
        (* "crashed" daemon: drive the scheduler directly, then drop it
           mid-job with no terminal transition — exactly the state
           SIGKILL leaves behind (journal fd never closed, checkpoint
           and journal on disk) *)
        Obs.set_enabled true;
        let sch = Scheduler.create ~quantum:1 ~spool ~emit:(fun _ -> ()) ~log:(fun _ -> ()) () in
        let line = tiny_envelope ~id:"cr" () in
        (match Protocol.parse_request line with
        | Ok (Protocol.Submit job) -> (
          match Scheduler.submit sch ~request:line job with
          | Ok () -> ()
          | Error e -> Alcotest.fail e.Protocol.message)
        | _ -> Alcotest.fail "parse");
        for _ = 1 to 3 do
          ignore (Scheduler.run_slice sch)
        done;
        Alcotest.(check bool) "checkpoint on disk" true
          (Sys.file_exists (Filename.concat spool "cr.ckpt"));
        (* restarted daemon on the same spool replays the journal *)
        let code, out = run_server ~spool [ "{\"type\":\"shutdown\",\"drain\":true}" ] in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        (match List.find_opt (fun j -> typ j = "recovered") records with
        | Some r ->
          Alcotest.(check (option string)) "recovered id" (Some "cr") (str "id" r);
          Alcotest.(check bool) "resumed from checkpoint" true
            (match Json.member "resumed" r with Some (Json.Bool b) -> b | _ -> false)
        | None -> Alcotest.fail "no recovered record");
        (match terminals_for "cr" records with
        | [ r ] when typ r = "result" ->
          (* %.10g round-trips through the protocol: printed equality
             is exact equality at that precision *)
          Alcotest.(check (option (float 0.))) "omega_end identical to uninterrupted run"
            omega_ref (num "omega_end" r)
        | l -> Alcotest.failf "cr after restart: %d terminals" (List.length l));
        let count name = Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.counters ())) in
        Alcotest.(check int) "serve.journal.recovered" 1 (count "serve.journal.recovered");
        Alcotest.(check int) "serve.journal.resumed" 1 (count "serve.journal.resumed");
        Alcotest.(check bool) "serve.journal.replayed > 0" true
          (count "serve.journal.replayed" > 0));
    Alcotest.test_case "SIGTERM parks in-flight jobs; a restart resumes them" `Slow (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        with_spool @@ fun spool ->
        let term = ref false in
        let prev = Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> term := true)) in
        Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigterm prev) @@ fun () ->
        let sent = ref false in
        let input = ref [ tiny_envelope ~id:"pk" () ] in
        let ckpt = Filename.concat spool "pk.ckpt" in
        let read ~block:_ =
          match !input with
          | l :: tl ->
            input := tl;
            `Line l
          | [] ->
            (* fire the signal only once the job has demonstrably run a
               quantum (its checkpoint exists), so there is something
               in flight to park *)
            if (not !sent) && Sys.file_exists ckpt then begin
              sent := true;
              Unix.kill (Unix.getpid ()) Sys.sigterm
            end;
            `Nothing
        in
        let out = ref [] in
        let code =
          Server.run
            (Server.default_config ~quantum:1 ~spool ~stop_requested:(fun () -> !term) ())
            ~read
            ~write:(fun l -> out := l :: !out)
            ~log:(fun _ -> ())
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of (List.rev !out) in
        (match terminals_for "pk" records with
        | [ r ] ->
          Alcotest.(check string) "typed terminal" "job-error" (typ r);
          Alcotest.(check (option string)) "parked" (Some "preempted") (str "kind" r)
        | l -> Alcotest.failf "pk: %d terminals" (List.length l));
        Alcotest.(check bool) "stream ended in a terminal error record" true
          (List.exists (fun j -> typ j = "error" && str "job" j = Some "pk") records);
        (match List.find_opt (fun j -> typ j = "bye") records with
        | Some b -> Alcotest.(check (option (float 0.))) "bye preempted" (Some 1.) (num "preempted" b)
        | None -> Alcotest.fail "no bye");
        Alcotest.(check bool) "checkpoint kept for the next daemon" true (Sys.file_exists ckpt);
        (* a restarted daemon on the same spool picks the job back up *)
        let code2, out2 = run_server ~spool [ "{\"type\":\"shutdown\",\"drain\":true}" ] in
        Alcotest.(check int) "restart exit code" 0 code2;
        let records2 = records_of out2 in
        Alcotest.(check bool) "recovered record" true
          (List.exists (fun j -> typ j = "recovered") records2);
        match terminals_for "pk" records2 with
        | [ r ] -> Alcotest.(check string) "resumed to completion" "result" (typ r)
        | l -> Alcotest.failf "pk after restart: %d terminals" (List.length l));
    Alcotest.test_case "deadline: watchdog cancels a running job, queued jobs expire" `Slow
      (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        Fault.with_armed "stall@1,stall=0.4,seed=7" @@ fun () ->
        let code, out =
          run_server ~quantum:4
            [
              tiny_envelope ~id:"dl1" ~deadline_ms:100. ();
              tiny_envelope ~id:"dl2" ~deadline_ms:40. ();
              "{\"type\":\"shutdown\",\"drain\":true}";
            ]
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        List.iter
          (fun id ->
            match terminals_for id records with
            | [ r ] ->
              Alcotest.(check string) (id ^ " typed terminal") "job-error" (typ r);
              Alcotest.(check (option string)) (id ^ " kind") (Some "deadline-exceeded")
                (str "kind" r)
            | l -> Alcotest.failf "%s: %d terminals" id (List.length l))
          [ "dl1"; "dl2" ];
        let count name = Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.counters ())) in
        Alcotest.(check bool) "serve.watchdog.deadline_exceeded >= 2" true
          (count "serve.watchdog.deadline_exceeded" >= 2));
    Alcotest.test_case "stall watchdog cancels a wedged solver" `Slow (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        Fault.with_armed "stall@1,stall=0.6,seed=7" @@ fun () ->
        let code, out =
          run_server ~quantum:4 ~stall_timeout_s:0.15
            [ tiny_envelope ~id:"wd" (); "{\"type\":\"shutdown\",\"drain\":true}" ]
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        (match terminals_for "wd" records with
        | [ r ] ->
          Alcotest.(check string) "typed terminal" "job-error" (typ r);
          Alcotest.(check (option string)) "kind" (Some "stalled") (str "kind" r)
        | l -> Alcotest.failf "wd: %d terminals" (List.length l));
        let count name = Option.value ~default:0 (List.assoc_opt name (Obs.Metrics.counters ())) in
        Alcotest.(check bool) "serve.watchdog.stalled >= 1" true
          (count "serve.watchdog.stalled" >= 1));
    Alcotest.test_case "circuit evaluations are the watchdog's heartbeat" `Quick (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        Obs.set_enabled true;
        let dae = Dae.make ~dim:1 ~q:(fun x -> x) ~f:(fun ~t:_ x -> x) () in
        (* a solve that emits no event: a circuit evaluation every
           10 ms (or none) for 0.3 s, watched at a 50 ms stall limit *)
        let busy ~evaluate () =
          let t_end = Unix.gettimeofday () +. 0.3 in
          while Unix.gettimeofday () < t_end do
            if evaluate then
              dae.Dae.eval_into ~t:0. [| 1. |] ~q:[| 0. |] ~f:[||] ~c:[||] ~g:[||];
            try Unix.sleepf 0.01 with Unix.Unix_error (Unix.EINTR, _, _) -> ()
          done
        in
        Supervisor.guard ~stall_s:0.05 (busy ~evaluate:true);
        match Supervisor.guard ~stall_s:0.05 (busy ~evaluate:false) with
        | () -> Alcotest.fail "a loop without circuit evaluations was not cancelled"
        | exception Supervisor.Stalled _ -> ());
    Alcotest.test_case "every failed job ends with its own solver error and flight dump" `Slow
      (fun () ->
        Obs.Metrics.with_isolated @@ fun () ->
        Fault.with_armed "nan%1,seed=3" @@ fun () ->
        with_spool @@ fun spool ->
        (* more same-circuit failures in a row than any per-circuit
           failure count would let through: each must still run, fail
           on the solver and leave its own postmortem *)
        let ids = List.init 6 (Printf.sprintf "nf%d") in
        let code, out =
          run_server ~spool ~quantum:2
            (List.map (fun id -> tiny_envelope ~id ()) ids
            @ [ "{\"type\":\"shutdown\",\"drain\":true}" ])
        in
        Alcotest.(check int) "exit code" 0 code;
        let records = records_of out in
        List.iter
          (fun id ->
            match terminals_for id records with
            | [ r ] ->
              Alcotest.(check string) (id ^ " typed terminal") "job-error" (typ r);
              Alcotest.(check bool) (id ^ " failed on the solver") true
                (match str "kind" r with
                | Some
                    ( "step-failure" | "step-underflow" | "solve-failed" | "nonphysical"
                    | "solver-failure" ) ->
                  true
                | _ -> false);
              (match str "flight" r with
              | Some p ->
                Alcotest.(check string) (id ^ " dump in the spool")
                  (Filename.concat spool (id ^ ".flight.json"))
                  p;
                Alcotest.(check bool) (id ^ " dump exists") true (Sys.file_exists p)
              | None -> Alcotest.failf "%s: job-error without a flight dump" id)
            | l -> Alcotest.failf "%s: %d terminals" id (List.length l))
          ids);
  ]

let suites =
  [
    ("serve_protocol", protocol_tests @ stats_tests @ fuzz_tests);
    ("serve_scheduler", scheduling_tests);
    ("serve_caches", cache_tests);
    ("serve_faults", fault_tests);
    ("serve_journal", journal_tests);
    ("serve_supervision", supervision_tests);
  ]
