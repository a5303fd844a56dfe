(* Tests for the domain pool (Par.Pool) and the determinism contract
   of the parallel kernels: FD Jacobian columns, preconditioner
   factor/apply, FFTs on worker domains.  "Bitwise identical for every
   job count" is checked with structural equality on float arrays — exact,
   not within a tolerance. *)
open Linalg
open Testkit

module Pool = Par.Pool
module Obs = Wampde_obs

(* Restore the ambient job count (WAMPDE_JOBS in CI) after each test
   that reconfigures the pool. *)
let ambient_jobs = Pool.jobs ()

let with_jobs j f =
  Pool.set_jobs j;
  Fun.protect ~finally:(fun () -> Pool.set_jobs ambient_jobs) f

exception Boom of int

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let pool_tests =
  [
    Alcotest.test_case "parallel_for covers every index exactly once" `Quick (fun () ->
        List.iter
          (fun jobs ->
            List.iter
              (fun n ->
                let hits = Array.make n 0 in
                Pool.parallel_for ~jobs n (fun i -> hits.(i) <- hits.(i) + 1);
                Alcotest.(check (array int))
                  (Printf.sprintf "n=%d jobs=%d" n jobs)
                  (Array.make n 1) hits)
              [ 1; 2; 3; 7; 100; 1001 ])
          [ 1; 2; 3; 8 ]);
    Alcotest.test_case "parallel_chunks partitions [0, n) contiguously" `Quick (fun () ->
        let n = 103 in
        let owner = Array.make n (-1) in
        Pool.parallel_chunks ~jobs:4 n (fun ~worker ~lo ~hi ->
            for i = lo to hi - 1 do
              owner.(i) <- worker
            done);
        Array.iteri (fun i w -> Alcotest.(check bool) (Printf.sprintf "covered %d" i) true (w >= 0)) owner;
        (* fixed assignment: chunk boundaries are c*n/k *)
        for i = 0 to n - 2 do
          Alcotest.(check bool) "monotone chunks" true (owner.(i) <= owner.(i + 1))
        done);
    Alcotest.test_case "chunk_count clamps to n and jobs" `Quick (fun () ->
        let chunk_count ~jobs n =
          let c = Atomic.make 0 in
          Pool.parallel_chunks ~jobs n (fun ~worker:_ ~lo:_ ~hi:_ -> Atomic.incr c);
          Atomic.get c
        in
        Alcotest.(check int) "jobs cap" 3 (chunk_count ~jobs:3 100);
        Alcotest.(check int) "n cap" 2 (chunk_count ~jobs:8 2);
        Alcotest.(check int) "at least one" 1 (chunk_count ~jobs:0 5));
    Alcotest.test_case "set_jobs clamps below one" `Quick (fun () ->
        with_jobs 1 (fun () ->
            Pool.set_jobs (-3);
            Alcotest.(check int) "clamped" 1 (Pool.jobs ())));
    Alcotest.test_case "typed error propagates out of a pool task, pool survives" `Quick
      (fun () ->
        (* the exception of the lowest-indexed raising chunk surfaces
           after the barrier; the workers keep serving afterwards *)
        let raised =
          try
            Pool.parallel_for ~jobs:4 100 (fun i -> if i >= 37 then raise (Boom i));
            None
          with Boom i -> Some i
        in
        (* chunk boundaries for n=100, k=4 are 0,25,50,75: the lowest
           raising chunk is chunk 1, whose first raising index is 37 *)
        Alcotest.(check (option int)) "typed error surfaced" (Some 37) raised;
        (* no wedged workers: the next region completes normally *)
        let hits = Array.make 1000 0 in
        Pool.parallel_for ~jobs:4 1000 (fun i -> hits.(i) <- 1);
        Alcotest.(check int) "pool alive" 1000 (Array.fold_left ( + ) 0 hits));
    Alcotest.test_case "singular preconditioner block raises through the pool" `Quick (fun () ->
        with_jobs 4 (fun () ->
            let n1 = 9 in
            (* C = I, B = 0: the exactly zero wavenumber-0 eigenvalue of
               the second-order FD circulant makes M_0 = 0 * I + 0
               singular *)
            let op =
              Structured.make_op ~alpha:1. ~d:(Fourier.Series.diff_matrix_fd ~order:2 n1)
                ~c_blocks:(Array.make n1 (Mat.identity 3))
                ~b_blocks:(Array.make n1 (Mat.zeros 3 3))
            in
            match Structured.make_precond [| op |] with
            | _ -> Alcotest.fail "expected Singular"
            | exception Cx.Clu.Singular _ -> ()));
    Alcotest.test_case "pool metrics accumulate on parallel regions" `Quick (fun () ->
        Obs.Metrics.with_isolated (fun () ->
            Obs.set_enabled true;
            let runs0 = Obs.Metrics.count (Obs.Metrics.counter "pool.runs") in
            Pool.parallel_for ~jobs:4 64 (fun _ -> ());
            let runs1 = Obs.Metrics.count (Obs.Metrics.counter "pool.runs") in
            Alcotest.(check int) "one region" 1 (runs1 - runs0);
            Alcotest.(check (float 0.))
              "effective jobs" 4.
              (Obs.Metrics.value (Obs.Metrics.gauge "pool.effective_jobs"))));
  ]

(* ---------- determinism: bitwise identity across job counts ---------- *)

let det_tests =
  let open QCheck in
  let jobs_gen = Gen.int_range 1 8 in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"parallel precond factor+apply is bitwise identical to serial" ~count:20
         (make Gen.(triple (int_range 1 11) (int_range 1 5) jobs_gen))
         (fun (k1, n, jobs) ->
           let n1 = (2 * k1) + 1 in
           (* random-ish diagonally dominant linear DAE blocks *)
           let mk seed =
             Array.init n1 (fun k ->
                 Mat.init n n (fun i j ->
                     (if i = j then 5. else 0.)
                     +. sin (float_of_int ((seed * 31) + (k * 7) + (i * 3) + j))))
           in
           let cs = mk 1 and bs = mk 2 in
           let d = Fourier.Series.diff_matrix n1 in
           let op = Structured.make_op ~alpha:0.7 ~d ~c_blocks:cs ~b_blocks:bs in
           let v = Array.init (n1 * n) (fun i -> cos (0.1 *. float_of_int i)) in
           let serial =
             with_jobs 1 (fun () ->
                 let pc = Structured.make_precond [| op |] in
                 let z = Array.make (n1 * n) 0. in
                 Structured.precond_apply_into pc v z;
                 (z, Structured.apply op v))
           in
           let par =
             with_jobs jobs (fun () ->
                 let pc = Structured.make_precond [| op |] in
                 let z = Array.make (n1 * n) 0. in
                 Structured.precond_apply_into pc v z;
                 (z, Structured.apply op v))
           in
           par = serial));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"ffts on pool workers are bitwise identical to serial ffts" ~count:40
         (make Gen.(triple (int_range 2 48) (int_range 1 16) jobs_gen))
         (fun (size, batch, jobs) ->
           let mk b k = sin (float_of_int ((b * 131) + k)) in
           let input b = Cx.Cvec.init size (fun k -> Cx.cx (mk b k) (mk (b + 77) k)) in
           let serial = Array.init batch (fun b -> Fourier.Fft.fft (input b)) in
           let par = Array.make batch [||] in
           Pool.parallel_for ~jobs batch (fun b -> par.(b) <- Fourier.Fft.fft (input b));
           par = serial));
  ]

(* Steady-state allocation of the Krylov inner loop.  Each kernel is
   warmed once, then measured: the words a call allocates on the
   calling domain must be the same at every n1 (nothing per element or
   per block) and small.  With a pool (WAMPDE_JOBS > 1) the count
   includes the fixed cost of dispatching each parallel region. *)
let alloc_n1s = [ 15; 25; 65; 161 ]
let alloc_cap = 1024.

let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let steady_words f =
  f ();
  words f

let check_flat what per_n1 =
  let counts = List.map snd per_n1 in
  let label =
    String.concat ", " (List.map (fun (n1, w) -> Printf.sprintf "n1=%d: %.0f" n1 w) per_n1)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates the same words at every n1 (%s)" what label)
    true
    (List.for_all (fun w -> w = List.hd counts) counts);
  Alcotest.(check bool)
    (Printf.sprintf "%s allocates at most %.0f words (%s)" what alloc_cap label)
    true
    (List.hd counts <= alloc_cap)

(* a VCO-sized (n = 4) bordered collocation system on n1 points *)
let alloc_system n1 =
  let n = 4 in
  let d = Fourier.Series.diff_matrix n1 in
  let c = Mat.identity n in
  let b = Mat.init n n (fun i j -> if i = j then 4. else 0.5) in
  let op =
    Structured.make_op ~alpha:0.8 ~d ~c_blocks:(Array.make n1 c) ~b_blocks:(Array.make n1 b)
  in
  let nd = n1 * n in
  let border_col = Array.init nd (fun i -> cos (0.3 *. float_of_int i)) in
  let border_row = Array.init nd (fun i -> if i mod n = 0 then 1. else 0.) in
  let pc = Structured.make_precond [| op |] in
  let bp = Structured.make_bordered pc ~cols:[| border_col |] ~rows:[| border_row |] in
  (op, pc, bp, border_col, border_row)

let alloc_tests =
  [
    Alcotest.test_case "precond apply reuses hoisted scratch (bounded words at every n1)" `Quick
      (fun () ->
        check_flat "precond_apply_into"
          (List.map
             (fun n1 ->
               let _, pc, _, _, _ = alloc_system n1 in
               let v = Array.init (n1 * 4) (fun i -> sin (0.01 *. float_of_int i)) in
               let out = Array.make (n1 * 4) 0. in
               (n1, steady_words (fun () -> Structured.precond_apply_into pc v out)))
             alloc_n1s));
    Alcotest.test_case "bordered apply allocates bounded words at every n1" `Quick (fun () ->
        check_flat "bordered_apply_into"
          (List.map
             (fun n1 ->
               let _, _, bp, _, _ = alloc_system n1 in
               let v = Array.init ((n1 * 4) + 1) (fun i -> sin (0.01 *. float_of_int i)) in
               let out = Array.make ((n1 * 4) + 1) 0. in
               (n1, steady_words (fun () -> Structured.bordered_apply_into bp v out)))
             alloc_n1s));
    Alcotest.test_case "real dft allocates nothing at every size" `Quick (fun () ->
        let per_n1 =
          List.map
            (fun n1 ->
              let t = Rdft.of_size n1 in
              let x = Array.init n1 (fun i -> sin (float_of_int i)) in
              let re = Array.make ((n1 / 2) + 1) 0. and im = Array.make ((n1 / 2) + 1) 0. in
              ( n1,
                steady_words (fun () ->
                    Rdft.forward t x ~re ~im;
                    Rdft.inverse t ~re ~im x) ))
            alloc_n1s
        in
        check_flat "Rdft.forward + inverse" per_n1;
        Alcotest.(check (float 0.)) "no words" 0. (snd (List.hd per_n1)));
    Alcotest.test_case "one more gmres iteration allocates bounded words at every n1" `Quick
      (fun () ->
        (* solves that stop on the iteration budget (tol is out of
           reach): the difference between k + 1 and k iterations is the
           cost of one iteration, matvec and preconditioner included *)
        let k = 3 in
        check_flat "one GMRES iteration"
          (List.map
             (fun n1 ->
               let op, _, bp, border_col, border_row = alloc_system n1 in
               let dim = (n1 * 4) + 1 in
               let b = Array.init dim (fun i -> sin (0.7 *. float_of_int i)) in
               let run iters =
                 let ws = Gmres.workspace ~n:dim ~restart:10 ~max_iter:iters () in
                 steady_words (fun () ->
                     let res =
                       Gmres.solve
                         ~matvec:(Structured.apply_bordered_into op ~border_col ~border_row)
                         ~m_inv:(Structured.bordered_apply_into bp) ~ws ~restart:10
                         ~max_iter:iters ~tol:1e-300 b
                     in
                     assert (res.Gmres.iterations = iters))
               in
               (n1, run (k + 1) -. run k))
             alloc_n1s));
    Alcotest.test_case "vec reductions allocate nothing per element" `Quick (fun () ->
        (* a call that returns a float boxes it (2 words); nothing else *)
        List.iter
          (fun (name, f) ->
            check_flat name
              (List.map
                 (fun n1 ->
                   let u = Array.init n1 (fun i -> sin (float_of_int i)) in
                   let v = Array.init n1 (fun i -> cos (float_of_int i)) in
                   (n1, steady_words (fun () -> ignore (Sys.opaque_identity (f u v)))))
                 alloc_n1s);
            let u = Array.make 65 1. in
            let w = steady_words (fun () -> ignore (Sys.opaque_identity (f u u))) in
            Alcotest.(check bool) (Printf.sprintf "%s: %.0f words <= 2" name w) true (w <= 2.))
          [
            ("Vec.dot", Vec.dot);
            ("Vec.norm2", fun u _ -> Vec.norm2 u);
            ("Vec.norm_inf", fun u _ -> Vec.norm_inf u);
          ]);
  ]

(* ---------- Bluestein plan cache under concurrent first use ---------- *)

let cache_tests =
  [
    Alcotest.test_case "plan cache survives concurrent first use" `Quick (fun () ->
        (* several odd sizes, first touched simultaneously from 8
           domains: the mutex-guarded double-checked insert must
           publish exactly one usable plan per size *)
        let sizes = [| 83; 89; 97; 101; 103; 107; 109; 113 |] in
        let tasks = 64 in
        let results = Array.make tasks [||] in
        Pool.parallel_for ~jobs:8 tasks (fun t ->
            let n = sizes.(t mod Array.length sizes) in
            let x = Cx.Cvec.init n (fun k -> Cx.cx (cos (0.3 *. float_of_int (k + t))) 0.) in
            results.(t) <- Fourier.Fft.fft x);
        (* serial recomputation (plans now warm) must agree bitwise *)
        Array.iteri
          (fun t r ->
            let n = sizes.(t mod Array.length sizes) in
            let x = Cx.Cvec.init n (fun k -> Cx.cx (cos (0.3 *. float_of_int (k + t))) 0.) in
            let s = Fourier.Fft.fft x in
            Array.iteri
              (fun k c ->
                Alcotest.(check bool)
                  (Printf.sprintf "task %d bin %d" t k)
                  true
                  (Cx.re c = Cx.re r.(k) && Cx.im c = Cx.im r.(k)))
              s)
          results);
  ]

(* ---------- manifest + doctor integration ---------- *)

let obs_tests =
  [
    Alcotest.test_case "manifest records jobs and validates" `Quick (fun () ->
        Obs.Metrics.with_isolated (fun () ->
            let m = Obs.Report.manifest ~jobs:4 ~wall_s:0.5 ~steps:[] () in
            Alcotest.(check bool) "jobs field" true (contains m "\"jobs\":4");
            (match Obs.Report.check m with
            | Ok () -> ()
            | Error e -> Alcotest.fail e)));
    Alcotest.test_case "doctor flags poor parallel efficiency" `Quick (fun () ->
        Obs.Metrics.with_isolated (fun () ->
            Obs.set_enabled true;
            Obs.Metrics.set (Obs.Metrics.gauge "pool.busy_s") 1.;
            Obs.Metrics.set (Obs.Metrics.gauge "pool.idle_s") 3.;
            let m = Obs.Report.manifest ~jobs:8 ~wall_s:1. ~steps:[] () in
            match Obs.Doctor.diagnose_string m with
            | Error e -> Alcotest.fail e
            | Ok findings ->
              let f =
                List.find_opt (fun f -> f.Obs.Doctor.category = "parallelism") findings
              in
              (match f with
              | Some f ->
                Alcotest.(check bool) "warn" true (f.Obs.Doctor.severity = Obs.Doctor.Warn);
                Alcotest.(check bool) "suggests lower jobs" true
                  (match f.Obs.Doctor.suggestion with
                  | Some s -> contains s "jobs"
                  | None -> false)
              | None -> Alcotest.fail "no parallelism finding")));
    Alcotest.test_case "doctor stays quiet on healthy parallel runs" `Quick (fun () ->
        Obs.Metrics.with_isolated (fun () ->
            Obs.set_enabled true;
            Obs.Metrics.set (Obs.Metrics.gauge "pool.busy_s") 3.8;
            Obs.Metrics.set (Obs.Metrics.gauge "pool.idle_s") 0.2;
            let m = Obs.Report.manifest ~jobs:4 ~wall_s:1. ~steps:[] () in
            match Obs.Doctor.diagnose_string m with
            | Error e -> Alcotest.fail e
            | Ok findings ->
              let f =
                List.find_opt (fun f -> f.Obs.Doctor.category = "parallelism") findings
              in
              (match f with
              | Some f ->
                Alcotest.(check bool) "info" true (f.Obs.Doctor.severity = Obs.Doctor.Info)
              | None -> Alcotest.fail "no parallelism finding")));
    Alcotest.test_case "jobs-2 trace tags pool chunks with per-worker tracks" `Quick (fun () ->
        Obs.Metrics.with_isolated (fun () ->
            with_jobs 2 (fun () ->
                Obs.set_enabled true;
                Obs.Span.start_recording ();
                let acc = Array.make 64 0. in
                Pool.parallel_for 64 (fun i -> acc.(i) <- sqrt (float_of_int (i + 1)));
                let spans = Obs.Span.stop_recording () in
                let chunks =
                  List.filter (fun (s : Obs.Span.record) -> s.name = "pool.chunk") spans
                in
                Alcotest.(check bool) "pool.chunk spans recorded" true (chunks <> []);
                let tids =
                  List.sort_uniq compare
                    (List.map (fun (s : Obs.Span.record) -> s.tid) chunks)
                in
                Alcotest.(check bool)
                  (Printf.sprintf "chunks land on >= 2 worker tracks (got %d)"
                     (List.length tids))
                  true
                  (List.length tids >= 2);
                List.iter
                  (fun t -> Alcotest.(check bool) "worker track ids start at 1" true (t >= 1))
                  tids;
                let trace = Obs.Trace_event.to_string ~spans ~events:[] () in
                match Testkit.json_exn trace with
                | Obs.Json.Arr evs ->
                  let str k e = Option.bind (Obs.Json.member k e) Obs.Json.to_str in
                  let thread_names =
                    List.filter (fun e -> str "name" e = Some "thread_name") evs
                  in
                  Alcotest.(check bool) "one thread_name metadata per track" true
                    (List.length thread_names >= List.length tids);
                  let count ph = List.length (List.filter (fun e -> str "ph" e = Some ph) evs) in
                  Alcotest.(check int) "B/E events balance" (count "B") (count "E")
                | _ -> Alcotest.fail "trace is not a JSON array")));
  ]

let suites =
  [
    ("par.pool", pool_tests);
    ("par.determinism", det_tests);
    ("par.alloc", alloc_tests);
    ("par.plan_cache", cache_tests);
    ("par.obs", obs_tests);
  ]
