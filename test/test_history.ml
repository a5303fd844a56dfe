(* The run-history store: CRC-guarded round trips, typed corruption
   errors, degraded loads that never raise, compaction bounds and the
   robust statistics behind history trend and history gate. *)

module Obs = Wampde_obs
module History = Obs.History

let dir_counter = ref 0

let with_dir f () =
  incr dir_counter;
  let dir = Printf.sprintf "history-test-%d" !dir_counter in
  let rm_rf () =
    if Sys.file_exists dir then begin
      Array.iter
        (fun x -> try Sys.remove (Filename.concat dir x) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ()
    end
  in
  rm_rf ();
  Fun.protect ~finally:rm_rf (fun () -> f dir)

let key ?(n1 = 15) ?(circuit = "vco-a") () =
  { History.circuit; analysis = "envelope"; n1; jobs = 1; git = "abc123" }

let manifest ?(wall = 1.5) ?(t = 1000.) () =
  Printf.sprintf "{\"schema\":\"wampde.run-report/1\",\"unix_time\":%g,\"wall_s\":%g}" t wall

let append_ok ?max_bytes ?keep ~dir ~key ~manifest () =
  match History.append ?max_bytes ?keep ~dir ~key ~manifest () with
  | Ok () -> ()
  | Error m -> Alcotest.failf "append failed: %s" m

(* the store file inside a history directory, read and written raw *)
let store dir = Filename.concat dir "history.ndjson"
let read_store dir = In_channel.with_open_bin (store dir) In_channel.input_all
let write_store dir text = Out_channel.with_open_bin (store dir) (fun oc -> output_string oc text)

(* one store line as [append] writes it *)
let stored_line () =
  let dir = Filename.temp_dir "history-line" "" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove (store dir) with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      append_ok ~dir ~key:(key ()) ~manifest:(manifest ()) ();
      String.trim (read_store dir))

let store_tests =
  [
    Alcotest.test_case "append/load round trip preserves keys and manifests" `Quick
      (with_dir (fun dir ->
           append_ok ~dir ~key:(key ()) ~manifest:(manifest ~wall:1.5 ()) ();
           append_ok ~dir ~key:(key ~n1:25 ()) ~manifest:(manifest ~wall:2.5 ()) ();
           let entries, warnings = History.load ~dir in
           Alcotest.(check int) "no warnings" 0 (List.length warnings);
           Alcotest.(check int) "two entries" 2 (List.length entries);
           let e1 = List.hd entries and e2 = List.nth entries 1 in
           Alcotest.(check int) "oldest first" 15 e1.History.key.n1;
           Alcotest.(check int) "newest last" 25 e2.History.key.n1;
           Alcotest.(check (float 1e-9)) "wall_s decoded" 1.5 e1.History.wall_s;
           Alcotest.(check (float 1e-9)) "unix_time decoded" 1000. e1.History.unix_time));
    Alcotest.test_case "encode/decode round trip, CRC catches byte mangling" `Quick
      (with_dir (fun dir ->
           append_ok ~dir ~key:(key ()) ~manifest:(manifest ()) ();
           let line = String.trim (read_store dir) in
           (match History.load ~dir with
            | [ e ], [] -> Alcotest.(check string) "circuit survives" "vco-a" e.History.key.circuit
            | _ -> Alcotest.fail "round trip lost the entry");
           (* flip one payload byte: framing is intact, CRC must trip *)
           let b = Bytes.of_string line in
           Bytes.set b (String.length line - 3) 'X';
           write_store dir (Bytes.to_string b ^ "\n");
           (match History.load ~dir with
            | [], [ msg ] ->
              Alcotest.(check bool) "CRC error names the cause" true (String.length msg > 0)
            | _ -> Alcotest.fail "mangled line decoded");
           (* truncation: too short for the CRC prefix *)
           write_store dir (String.sub line 0 6 ^ "\n");
           match History.load ~dir with
           | [], [ _ ] -> ()
           | _ -> Alcotest.fail "truncated line decoded"));
    Alcotest.test_case "load skips corrupt lines with warnings, never raises" `Quick
      (with_dir (fun dir ->
           append_ok ~dir ~key:(key ()) ~manifest:(manifest ~wall:1. ()) ();
           append_ok ~dir ~key:(key ()) ~manifest:(manifest ~wall:2. ()) ();
           (* mangle the first line's payload in place *)
           let p = store dir in
           let ic = open_in_bin p in
           let contents =
             Fun.protect
               ~finally:(fun () -> close_in_noerr ic)
               (fun () -> really_input_string ic (in_channel_length ic))
           in
           let b = Bytes.of_string contents in
           Bytes.set b 20 '!';
           let oc = open_out_bin p in
           Fun.protect
             ~finally:(fun () -> close_out_noerr oc)
             (fun () -> output_bytes oc b);
           let entries, warnings = History.load ~dir in
           Alcotest.(check int) "one survivor" 1 (List.length entries);
           Alcotest.(check int) "one warning" 1 (List.length warnings);
           Alcotest.(check (float 1e-9)) "the intact entry survived" 2.
             (List.hd entries).History.wall_s));
    Alcotest.test_case "compaction keeps the newest K per key" `Quick
      (with_dir (fun dir ->
           for i = 1 to 10 do
             append_ok ~dir ~key:(key ()) ~manifest:(manifest ~wall:(float_of_int i) ()) ()
           done;
           (* the store now outgrows a 1-byte bound: append compacts it *)
           append_ok ~max_bytes:1 ~keep:3 ~dir ~key:(key ~circuit:"vco-b" ())
             ~manifest:(manifest ~wall:99. ())
             ();
           let entries, warnings = History.load ~dir in
           Alcotest.(check int) "no warnings after rewrite" 0 (List.length warnings);
           Alcotest.(check int) "3 + 1 entries kept" 4 (List.length entries);
           let walls =
             List.filter_map
               (fun (e : History.entry) ->
                 if e.key.circuit = "vco-a" then Some e.wall_s else None)
               entries
           in
           Alcotest.(check (list (float 1e-9))) "newest three, oldest first" [ 8.; 9.; 10. ]
             walls));
    Alcotest.test_case "append auto-compacts once the store outgrows max_bytes" `Quick
      (with_dir (fun dir ->
           for i = 1 to 50 do
             append_ok ~max_bytes:2048 ~keep:4 ~dir ~key:(key ())
               ~manifest:(manifest ~wall:(float_of_int i) ())
               ()
           done;
           let entries, _ = History.load ~dir in
           Alcotest.(check bool)
             (Printf.sprintf "entry count stays bounded (got %d)" (List.length entries))
             true
             (List.length entries <= 8)));
  ]

let concurrency_tests =
  [
    Alcotest.test_case "concurrent writers never tear or lose a record" `Slow
      (with_dir (fun dir ->
           (* O_APPEND single-write appends: racing writers may
              interleave whole lines but must never interleave bytes.
              Every record must survive intact and decodable. *)
           let domains = 4 and per_domain = 25 in
           let spawned =
             List.init domains (fun d ->
                 Domain.spawn (fun () ->
                     for i = 1 to per_domain do
                       append_ok ~dir
                         ~key:(key ~n1:(15 + (2 * d)) ())
                         ~manifest:(manifest ~wall:(float_of_int ((d * 100) + i)) ())
                         ()
                     done))
           in
           List.iter Domain.join spawned;
           let entries, warnings = History.load ~dir in
           Alcotest.(check (list string)) "no corrupt lines" [] warnings;
           Alcotest.(check int) "every append survived" (domains * per_domain)
             (List.length entries);
           (* each writer's records are all present exactly once *)
           List.iter
             (fun d ->
               let mine =
                 List.filter (fun e -> e.History.key.n1 = 15 + (2 * d)) entries
               in
               Alcotest.(check int)
                 (Printf.sprintf "writer %d records" d)
                 per_domain (List.length mine);
               let walls =
                 List.map (fun e -> e.History.wall_s) mine |> List.sort_uniq compare
               in
               Alcotest.(check int)
                 (Printf.sprintf "writer %d distinct manifests" d)
                 per_domain (List.length walls))
             (List.init domains Fun.id)));
  ]

let fuzz_tests =
  let open QCheck in
  let dir = Filename.temp_dir "history-fuzz" "" in
  at_exit (fun () ->
      (try Sys.remove (store dir) with Sys_error _ -> ());
      try Sys.rmdir dir with Sys_error _ -> ());
  [
    (* [load] decodes every store line and turns only [Corrupt] into a
       warning, so any other exception from the decoder escapes it *)
    QCheck_alcotest.to_alcotest
      (Test.make ~count:300 ~name:"decode_line is total (Corrupt or entry, never other raises)"
         (make
            Gen.(
              oneof
                [
                  string_size (int_range 0 80);
                  (* valid line with a few random byte flips *)
                  (let* flips = list_size (int_range 1 4) (pair small_nat char) in
                   let b = Bytes.of_string (stored_line ()) in
                   List.iter
                     (fun (pos, c) ->
                       if Bytes.length b > 0 then Bytes.set b (pos mod Bytes.length b) c)
                     flips;
                   return (Bytes.to_string b));
                ]))
         (fun line ->
           write_store dir line;
           match History.load ~dir with
           | _ -> true
           | exception e ->
             Test.fail_reportf "decoding raised %s on %S" (Printexc.to_string e) line));
  ]

let stats_tests =
  [
    Alcotest.test_case "median and MAD are robust to one outlier" `Quick (fun () ->
        let samples = [ 1.0; 1.1; 0.9; 1.05; 50.0 ] in
        let med = History.median samples in
        let mad = History.mad samples in
        Alcotest.(check (float 1e-9)) "median ignores the spike" 1.05 med;
        Alcotest.(check bool) "spike is an outlier" true
          (History.is_outlier ~median:med ~mad 50.0);
        Alcotest.(check bool) "typical value is not" false
          (History.is_outlier ~median:med ~mad 1.1));
    Alcotest.test_case "identical samples flag nothing (floor)" `Quick (fun () ->
        let samples = [ 2.0; 2.0; 2.0; 2.0 ] in
        let med = History.median samples in
        let mad = History.mad samples in
        Alcotest.(check bool) "equal value passes" false
          (History.is_outlier ~median:med ~mad 2.0));
  ]

let suites =
  [ ("history", store_tests @ concurrency_tests @ fuzz_tests @ stats_tests) ]
