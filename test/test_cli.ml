(* The CLI's help pages, its numeric flag checks, its trace artifacts,
   its typed solver failures (kinds shared with serve's job errors) and
   doctor's refusal of files that are not
   run manifests.
   Every subcommand (found by walking the COMMANDS sections of the help
   pages themselves) must render its --help=plain page: cmdliner reports
   a malformed doc string as a "cmdliner error" at the top of the page
   instead of failing the build. *)

let cli_exe =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "wampde_cli.exe")

(* exit code and merged stdout/stderr of [wampde_cli args...] *)
let run_cli args =
  let cmd = String.concat " " (List.map Filename.quote (cli_exe :: args)) ^ " 2>&1" in
  let ic = Unix.open_process_in cmd in
  let out = In_channel.input_all ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED code -> (code, out)
  | _ -> Alcotest.failf "%s: killed by a signal" cmd

(* the merged output of [wampde_cli path... --help=plain] *)
let help path = snd (run_cli (path @ [ "--help=plain" ]))

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* [with_temp suffix f] calls [f] with a fresh path that does not exist
   yet and removes whatever [f] leaves there *)
let with_temp suffix f =
  let path = Filename.temp_file "wampde" suffix in
  Sys.remove path;
  Fun.protect (fun () -> f path) ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)

(* the [reason.kind] of a flight dump, which comes from serve's
   failure table (see "one failure table names ...") *)
let dump_kind dump =
  let module Json = Wampde_obs.Json in
  match Json.parse (In_channel.with_open_bin dump In_channel.input_all) with
  | Ok j ->
    Option.bind (Json.member "reason" j) (fun r -> Option.bind (Json.member "kind" r) Json.to_str)
  | Error m -> Alcotest.failf "flight dump: %s" m

(* Command names listed in a page's COMMANDS section: lines indented by
   exactly seven spaces whose first word is the name. *)
let subcommands page =
  let lines = String.split_on_char '\n' page in
  let rec skip = function
    | [] -> []
    | l :: rest -> if String.trim l = "COMMANDS" then rest else skip rest
  in
  let rec take acc = function
    | [] -> List.rev acc
    | l :: rest ->
      if String.length l > 0 && l.[0] <> ' ' then List.rev acc
      else if String.length l > 7 && String.sub l 0 7 = "       " && l.[7] <> ' ' then
        let name = List.hd (String.split_on_char ' ' (String.sub l 7 (String.length l - 7))) in
        take (name :: acc) rest
      else take acc rest
  in
  take [] (skip lines)

let tests =
  [
    Alcotest.test_case "every subcommand's --help=plain renders without a cmdliner error" `Quick
      (fun () ->
        Alcotest.(check bool) ("CLI built at " ^ cli_exe) true (Sys.file_exists cli_exe);
        let rec walk path =
          let page = help path in
          let name = String.concat " " ("wampde_cli" :: path) in
          Alcotest.(check bool) (name ^ " --help=plain has a NAME section") true
            (contains page "NAME");
          Alcotest.(check bool) (name ^ " --help=plain has no cmdliner error") false
            (contains page "cmdliner error");
          List.fold_left (fun n sub -> n + walk (path @ [ sub ])) 1 (subcommands page)
        in
        Alcotest.(check bool) "top-level page lists the envelope command" true
          (List.mem "envelope" (subcommands (help [])));
        let pages = walk [] in
        Alcotest.(check bool) (Printf.sprintf "%d help pages checked" pages) true (pages > 10));
    Alcotest.test_case "numeric flags reject unusable values as usage errors" `Quick (fun () ->
        (* each would hang, march backwards or die on an uncaught
           exception if it reached the solvers *)
        List.iter
          (fun (flag, args) ->
            let code, out = run_cli args in
            let name = String.concat " " args in
            Alcotest.(check int) (name ^ ": exit code: " ^ out) 124 code;
            Alcotest.(check bool)
              (name ^ " names " ^ flag ^ ": " ^ out)
              true
              (contains out (Printf.sprintf "option '%s'" flag)))
          [
            ("--h2", [ "envelope"; "--vco"; "a"; "--h2"; "0" ]);
            ("--h2", [ "waveform"; "--vco"; "a"; "--h2"; "0" ]);
            ("--h2", [ "envelope"; "--h2=-1" ]);
            ("--h2", [ "envelope"; "--h2"; "nan" ]);
            ("--rtol", [ "envelope"; "--rtol"; "0" ]);
            ("--atol", [ "envelope"; "--atol"; "inf" ]);
            ("--h2min", [ "envelope"; "--h2min"; "0" ]);
            ("--h2max", [ "envelope"; "--h2max=-inf" ]);
            ("--h2min", [ "envelope"; "--h2min"; "2"; "--h2max"; "1" ]);
            ("--h2min", [ "envelope"; "--t-end"; "10"; "--h2min"; "6" ]);
            ("--n1", [ "orbit"; "--n1"; "24" ]);
            ("--n1", [ "envelope"; "--n1"; "24" ]);
            ("--n1", [ "quasi"; "--n1"; "24" ]);
            ("--n1", [ "waveform"; "--n1"; "1" ]);
            ("--n2", [ "quasi"; "--n2"; "10" ]);
            ("--t-end", [ "waveform"; "--t-end"; "0" ]);
            ("--t-end", [ "envelope"; "--t-end"; "0" ]);
            ("--t-end", [ "transient"; "--t-end"; "nan" ]);
            ("--checkpoint-every", [ "envelope"; "--checkpoint-every"; "0" ]);
            ("--stride", [ "transient"; "--stride"; "0" ]);
            ("--pts-per-cycle", [ "transient"; "--pts-per-cycle"; "0" ]);
            ("--per-cycle", [ "waveform"; "--per-cycle"; "0" ]);
            (* any existing file passes DECK's own check *)
            ("--steps", [ "deck"; "--steps"; "0"; cli_exe ]);
            ("--t-end", [ "deck"; "--t-end"; "0"; cli_exe ]);
          ]);
    Alcotest.test_case "doctor exits 1 on JSON that is not a run manifest" `Quick (fun () ->
        with_temp ".json" @@ fun array ->
        with_temp ".json" @@ fun dump ->
        Out_channel.with_open_bin array (fun oc -> output_string oc "[1,2]\n");
        (match Wampde_obs.Flight.write ~path:dump ~kind:"test" ~message:"not a manifest" () with
        | Ok _ -> ()
        | Error m -> Alcotest.failf "flight dump: %s" m);
        List.iter
          (fun (what, file, args) ->
            let code, out = run_cli ([ "doctor"; file ] @ args) in
            Alcotest.(check int) (what ^ ": exit code: " ^ out) 1 code;
            Alcotest.(check bool) (what ^ " yields no diagnosis: " ^ out) false
              (contains out "finding(s)"))
          [
            ("a bare array", array, []);
            ("a bare array, --strict", array, [ "--strict" ]);
            ("a flight dump", dump, []);
          ]);
    Alcotest.test_case "a failed quasiperiodic solve exits 1 with a typed line and a flight dump"
      `Quick (fun () ->
        with_temp ".json" @@ fun dump ->
        (* every linear solve inside the quasiperiodic solve's
           scope fails, so neither cascade stage converges.  The
           orbit search and the envelope warm-up do not count *)
        let code, out =
          run_cli
            [ "quasi"; "--n1"; "15"; "--n2"; "15"; "--fault-inject";
              "quasiperiodic:linsolve%1"; "--flight-dump"; dump ]
        in
        Alcotest.(check int) ("exit code: " ^ out) 1 code;
        let typed =
          List.filter
            (fun l ->
              String.length l > 12 && String.sub l 0 12 = "wampde_cli: "
              && contains l "Solve_failure")
            (String.split_on_char '\n' out)
        in
        Alcotest.(check int) ("one typed error line: " ^ out) 1 (List.length typed);
        Alcotest.(check bool) ("no uncaught exception: " ^ out) false
          (contains out "internal error");
        Alcotest.(check bool) "flight dump written" true (Sys.file_exists dump);
        Alcotest.(check (option string)) "dump kind" (Some "solve-failed") (dump_kind dump));
    Alcotest.test_case "a linear-solve fault on every solve ends quasi in a typed error" `Quick
      (fun () ->
        with_temp ".json" @@ fun dump ->
        (* trust region's Newton point meets the fault as every
           other linear solve does, so no stage can rescue a solve.
           The first to fail is the orbit search's warm-up
           transient, whose step rescue is trust region: a step
           failure, before the envelope or the cascade runs *)
        let code, out =
          run_cli
            [ "quasi"; "--n1"; "15"; "--n2"; "15"; "--fault-inject"; "linsolve%1";
              "--flight-dump"; dump ]
        in
        Alcotest.(check int) ("exit code: " ^ out) 1 code;
        Alcotest.(check bool) ("typed error line: " ^ out) true
          (contains out "wampde_cli: Transient.Step_failure");
        Alcotest.(check bool) ("no uncaught exception: " ^ out) false
          (contains out "internal error");
        Alcotest.(check (option string)) "dump kind" (Some "step-failure") (dump_kind dump));
    Alcotest.test_case "a run that ends in a typed error still writes every artifact" `Quick
      (fun () ->
        with_temp ".jsonl" @@ fun trace ->
        with_temp ".json" @@ fun perfetto ->
        with_temp ".json" @@ fun report ->
        with_temp ".json" @@ fun dump ->
        (* every linear solve fails, so the orbit search's warm-up
           transient ends the run in a typed step failure *)
        let code, out =
          run_cli
            [ "envelope"; "--vco"; "a"; "--n1"; "15"; "--t-end"; "10"; "--fault-inject";
              "linsolve%1"; "--trace"; trace; "--trace-perfetto"; perfetto; "--report";
              report; "--flight-dump"; dump ]
        in
        Alcotest.(check int) ("exit code: " ^ out) 1 code;
        Alcotest.(check bool) ("typed error line: " ^ out) true
          (contains out "wampde_cli: Transient.Step_failure");
        Alcotest.(check bool) ("span tree printed: " ^ out) true
          (contains out "== span summary ==");
        List.iter
          (fun f -> Alcotest.(check bool) (f ^ " written") true (Sys.file_exists f))
          [ trace; dump ];
        Testkit.assert_valid_trace
          (Testkit.json_exn (In_channel.with_open_bin perfetto In_channel.input_all));
        let code, check = run_cli [ "report"; report; "--check" ] in
        Alcotest.(check int) ("report --check: " ^ check) 0 code);
    Alcotest.test_case "one failure table names the CLI's dumps and serve's job errors" `Quick
      (fun () ->
        let report =
          { Nonlin.Newton.x = [||]; residual_norm = nan; iterations = 0; converged = false;
            reason = Some Nonlin.Newton.Iteration_limit }
        in
        List.iter
          (fun (exn, kind) ->
            Alcotest.(check string) (Printexc.to_string exn) kind
              (fst (Serve.Scheduler.classify exn)))
          [
            ( Transient.Step_failure
                { t = 0.; h = 1.; residual_norm = nan; iterations = 0; reason = None },
              "step-failure" );
            (Step_control.Underflow { t = 0.; h = 1e-12 }, "step-underflow");
            (Checkpoint.Corrupt "bad crc", "corrupt-checkpoint");
            (Nonlin.Polyalg.Solve_failed { label = "test"; attempts = [] }, "solve-failed");
            (Wampde.Quasiperiodic.Solve_failure report, "solve-failed");
            (Mpde.Solve_failure { stage = "test"; report }, "solve-failed");
            (Steady.Oscillator.Nonphysical "equilibrium", "nonphysical");
          ]);
    Alcotest.test_case "a jobs-2 Perfetto file nests B/E on every track" `Quick (fun () ->
        let module Json = Wampde_obs.Json in
        with_temp ".json" @@ fun perfetto ->
        (* the Krylov envelope factors its preconditioner blocks in
           pool regions, so a worker track appears *)
        let code, out =
          run_cli
            [ "envelope"; "--vco"; "a"; "--n1"; "15"; "--t-end"; "2"; "--h2"; "0.5";
              "--solver"; "krylov"; "--jobs"; "2"; "--trace-perfetto"; perfetto ]
        in
        Alcotest.(check int) ("exit code: " ^ out) 0 code;
        let trace = Testkit.json_exn (In_channel.with_open_bin perfetto In_channel.input_all) in
        Testkit.assert_valid_trace trace;
        let entries = match trace with Json.Arr l -> l | _ -> [] in
        let exists ph p =
          List.exists (fun j -> Json.member "ph" j = Some (Json.Str ph) && p j) entries
        in
        Alcotest.(check bool) "a worker track" true
          (exists "B" (fun j -> Json.member "tid" j = Some (Json.Num 2.)));
        Alcotest.(check bool) "GC args on E events" true
          (exists "E" (fun j ->
               Option.bind (Json.member "args" j) (Json.member "alloc_words") <> None)));
    Alcotest.test_case "--trace with --trace-perfetto writes each event once, timed" `Quick
      (fun () ->
        let module Json = Wampde_obs.Json in
        with_temp ".jsonl" @@ fun trace ->
        with_temp ".json" @@ fun perfetto ->
        let code, out =
          run_cli
            [ "envelope"; "--vco"; "a"; "--n1"; "15"; "--t-end"; "2"; "--h2"; "0.5";
              "--trace"; trace; "--trace-perfetto"; perfetto ]
        in
        Alcotest.(check int) ("exit code: " ^ out) 0 code;
        let parse what s =
          match Json.parse s with Ok j -> j | Error m -> Alcotest.failf "%s: %s" what m
        in
        let str k j = Option.bind (Json.member k j) Json.to_str in
        let lines =
          In_channel.with_open_bin trace In_channel.input_all
          |> String.split_on_char '\n'
          |> List.filter (fun l -> l <> "")
          |> List.map (parse "trace line")
        in
        let t_s j =
          match Option.bind (Json.member "t_s" j) Json.to_num with
          | Some t -> t
          | None -> Alcotest.failf "trace line without t_s: %s" (Json.to_string j)
        in
        List.iter (fun j -> ignore (t_s j)) lines;
        let events = List.filter (fun j -> str "type" j = Some "event") lines in
        let times = List.map t_s events in
        Alcotest.(check bool) "event lines in time order" true
          (List.for_all2 ( <= ) (List.rev (List.tl (List.rev times))) (List.tl times));
        Alcotest.(check bool) "no instant lines beside the event lines" false
          (List.exists (fun j -> str "type" j = Some "instant") lines);
        let instants =
          match parse "perfetto" (In_channel.with_open_bin perfetto In_channel.input_all) with
          | Json.Arr entries -> List.filter (fun j -> str "ph" j = Some "i") entries
          | _ -> Alcotest.fail "perfetto trace is not an array"
        in
        let count key name l = List.length (List.filter (fun j -> str key j = Some name) l) in
        List.iter
          (fun name ->
            Alcotest.(check int) (name ^ ": one trace line per Perfetto instant")
              (count "name" name instants) (count "event" name events))
          [ "step_accept"; "phase_condition"; "newton_done" ];
        Alcotest.(check int) "one trace line per record" (List.length instants)
          (List.length events);
        Alcotest.(check int) "one omega(t2) per macro step" 4
              (count "event" "phase_condition" events));
  ]

let suites = [ ("cli", tests) ]
