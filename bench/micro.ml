(* Bechamel microbenchmarks for the linear-algebra kernels behind the
   Newton solves: dense LU factorization (allocating and in place) and
   substitution, the dense matvec and transposed matvec of trust
   region's model, the (D (x) I) charge-derivative kernel, the
   structured collocation matvec and the dense assembly of that
   operator, and one application of the
   DFT-diagonalized block preconditioner.  Next to them, the circuit
   kernel every solver calls: one [eval_into] pass of the compiled
   VCO-A netlist into caller buffers, filling [q] and [f] (a value
   pass, which skips every device's derivative arithmetic) and filling
   [C] and [G] (a Jacobian pass); a fixed-step transient step makes
   three of the first and two of the second.  Then the whole
   fixed-step transient: one 3,400-step trapezoidal VCO-B warm-up, the
   34-period fallback [Oscillator.polish] runs for an orbit its short
   warm-up does not show stable, also printed per step.  Last, the
   WaMPDE itself: one slow step of the VCO-A envelope at n1 = 25 (the
   first step's chord Jacobian included), one point of the eq. (17)
   recovery [Sigproc.Warp.eval] on a 60 us VCO-A envelope run, and a
   1024-point complex FFT.

   LU is timed at the sizes the dense callers factor: 4 (the
   transient's Newton Jacobian for a four-state VCO, thousands of
   factors per orbit set-up, below the C sweep's crossover in lu.ml),
   5 (shooting for a four-state orbit and its period), 61 (a
   four-state VCO envelope or orbit at n1 = 15, the serve jobs' grid),
   101 (the VCO-B envelope chord at n1 = 25), 121 (the sinh-cascade
   periodic MPDE Newton) and 161 (just past
   [Structured.default_threshold], where the automatic choice hands a
   system to Krylov: what the dense path would cost there); the
   substitution at 4, 61, 101 and 121.  [Mat.matvec] and [Mat.tmatvec]
   run at 121, the size of trust region's model on the sinh-cascade
   grid.  The (D (x) I) kernel and the dense assembly of the
   collocation Jacobian ([Structured.dense_into], which the chord
   refactors from) run at the VCO-B envelope's grid (n1 = 25, four
   states).
   The preconditioner apply is timed from the serve jobs' grids
   (n1 = 15-25) up to the largest Krylov envelope grid (161): its real
   DFT is O(n1^2) against a Bluestein FFT's O(n1 log n1), and these
   sizes show where that would start to lose.

   Run with `dune exec bench/micro.exe`; built by `dune build @bench`. *)

open Linalg

let lu_sizes = [ 4; 5; 61; 101; 121; 161 ]
let lu_solve_sizes = [ 4; 61; 101; 121 ]
let sizes = [ 33; 65; 101 ]
let precond_sizes = [ 15; 17; 25; 33; 65; 101; 161 ]
let n = 4 (* states of the VCO DAE *)

(* the warm-up row, reported per run and per step *)
let warmup_name = "transient_vco_b_warmup"
let warmup_steps = 3400.

(* envelope-step-like operator with synthetic (diagonally dominant)
   blocks: representative sparsity-free n x n blocks, circulant D *)
let make_system n1 =
  let d = Fourier.Series.diff_matrix n1 in
  let c_blocks =
    Array.init n1 (fun k ->
        Mat.init n n (fun i j ->
            (if i = j then 2. else 0.) +. (0.3 *. sin (float_of_int ((k * 5) + i + (2 * j))))))
  in
  let b_blocks =
    Array.init n1 (fun k ->
        Mat.init n n (fun i j ->
            (if i = j then 5. else 0.) +. (0.4 *. cos (float_of_int ((k * 3) + (2 * i) + j)))))
  in
  Structured.make_op ~alpha:0.8 ~d ~c_blocks ~b_blocks

let tests =
  let open Bechamel in
  List.concat_map
    (fun nd ->
      let dense =
        Mat.init nd nd (fun i j -> (if i = j then 8. else 0.) +. sin (float_of_int ((i * 7) + j)))
      in
      let buf = Mat.zeros nd nd and perm = Array.make nd 0 in
      [
        Test.make
          ~name:(Printf.sprintf "lu_factor_%d" nd)
          (Staged.stage (fun () -> Lu.factor dense));
        (* the same factorization refilled into one reused buffer: the
           difference from [lu_factor] is the fresh copy it allocates *)
        Test.make
          ~name:(Printf.sprintf "lu_factor_into_%d" nd)
          (Staged.stage (fun () ->
               Array.iteri (fun i row -> Array.blit row 0 buf.(i) 0 nd) dense;
               Lu.factor_into buf ~perm));
      ])
    lu_sizes
  @ List.map
      (fun nd ->
        let dense =
          Mat.init nd nd (fun i j -> (if i = j then 8. else 0.) +. sin (float_of_int ((i * 7) + j)))
        in
        let lu = Lu.factor dense in
        let b = Array.init nd (fun i -> cos (float_of_int i)) and x = Array.make nd 0. in
        Test.make
          ~name:(Printf.sprintf "lu_solve_into_%d" nd)
          (Staged.stage (fun () -> Lu.solve_into lu b x)))
      lu_solve_sizes
  @ (let nd = 121 in
     let dense =
       Mat.init nd nd (fun i j -> (if i = j then 8. else 0.) +. sin (float_of_int ((i * 7) + j)))
     in
     let v = Array.init nd (fun i -> cos (float_of_int i)) in
     [
       Test.make ~name:(Printf.sprintf "matvec_%d" nd) (Staged.stage (fun () -> Mat.matvec dense v));
       Test.make
         ~name:(Printf.sprintf "tmatvec_%d" nd)
         (Staged.stage (fun () -> Mat.tmatvec dense v));
     ])
  @ [
      (let n1 = 25 in
       let d = Fourier.Series.diff_matrix n1 in
       let src = Array.init (n1 * n) (fun i -> sin (float_of_int i)) in
       let dst = Array.make (n1 * n) 0. in
       Test.make
         ~name:(Printf.sprintf "kron_eye_n1_%d_n_%d" n1 n)
         (Staged.stage (fun () -> Mat.kron_eye_into d ~n ~lo:0 ~hi:n1 src dst)));
      (let n1 = 25 in
       let op = make_system n1 in
       let nd = Structured.dim op in
       let jac = Mat.zeros (nd + 1) (nd + 1) in
       Test.make
         ~name:(Printf.sprintf "structured_dense_into_n1_%d_n_%d" n1 n)
         (Staged.stage (fun () -> Structured.dense_into op jac)));
    ]
  @ List.map
      (fun n1 ->
        let op = make_system n1 in
        let nd = Structured.dim op in
        let v = Array.init nd (fun i -> sin (float_of_int i)) in
        let out = Array.make nd 0. in
        Test.make
          ~name:(Printf.sprintf "structured_matvec_%d" nd)
          (Staged.stage (fun () -> Structured.apply_into op v out)))
      sizes
  @ List.map
      (fun n1 ->
        let op = make_system n1 in
        let nd = Structured.dim op in
        let pc = Structured.make_precond [| op |] in
        let v = Array.init nd (fun i -> sin (float_of_int i)) in
        let out = Array.make nd 0. in
        Test.make
          ~name:(Printf.sprintf "precond_apply_n1_%d" n1)
          (Staged.stage (fun () -> Structured.precond_apply_into pc v out)))
      precond_sizes
  @ (let dae = Circuit.Vco.build (Circuit.Vco.vco_a ()) in
     let x = [| 1.3; -0.2; 0.9; 0.1 |] in
     let q = Array.make n 0. and f = Array.make n 0. in
     let c = Mat.zeros n n and g = Mat.zeros n n in
     [
       Test.make ~name:"circuit_f_q_vco_a"
         (Staged.stage (fun () -> dae.Dae.eval_into ~t:7. x ~q ~f ~c:[||] ~g:[||]));
       Test.make ~name:"circuit_c_g_vco_a"
         (Staged.stage (fun () -> dae.Dae.eval_into ~t:7. x ~q:[||] ~f:[||] ~c ~g));
     ])
  @ [
      (let p = Circuit.Vco.vco_b () in
       let dae = Circuit.Vco.build p and x0 = Circuit.Vco.initial_state p in
       let period = 1. /. Circuit.Vco.nominal_frequency p in
       Test.make ~name:warmup_name
         (Staged.stage (fun () ->
              Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0.
                ~t1:(period *. 34.) ~h:(period /. 100.) x0)));
    ]
  @
  let p = Circuit.Vco.vco_a () in
  let frozen =
    Circuit.Vco.default_params ~damping:0.0785 ~force0:4.3e-3 ~control:(fun _ -> 1.5) ()
  in
  let orbit =
    Steady.Oscillator.find (Circuit.Vco.build frozen) ~n1:25 ~period_hint:(1. /. 0.75)
      (Circuit.Vco.initial_state frozen)
  in
  let dae = Circuit.Vco.build p and options = Wampde.Envelope.default_options ~n1:25 () in
  let warp =
    Wampde.Envelope.warping (Wampde.Envelope.simulate dae ~options ~t2_end:60. ~h2:0.4 ~init:orbit)
  in
  let t = ref 0. in
  let sig1024 = Cx.Cvec.init 1024 (fun i -> Cx.cx (sin (0.1 *. float_of_int i)) 0.) in
  [
    Test.make ~name:"wampde_slow_step"
      (Staged.stage (fun () ->
           Wampde.Envelope.simulate dae ~options ~t2_end:0.4 ~h2:0.4 ~init:orbit));
    (* a new point each run, walking the 60 us window *)
    Test.make ~name:"recovery_point_vco_a"
      (Staged.stage (fun () ->
           t := Float.rem (!t +. 0.0137) 60.;
           Sigproc.Warp.eval warp ~component:Circuit.Vco.idx_voltage !t));
    Test.make ~name:"fft_1024" (Staged.stage (fun () -> Fourier.Fft.fft sig1024));
  ]

let () =
  let open Bechamel in
  let open Toolkit in
  (* r^2 is the OLS fit's share of the samples' variance: near 1 the
     estimate is the slope of clean samples, well below it the host's
     noise moved the runs and one reading cannot tell a change from it *)
  Printf.printf "== linalg and circuit kernel microbenchmarks (ns/run, OLS r^2) ==\n%!";
  let cfg = Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) () in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  List.iter
    (fun test ->
      let raw = Benchmark.all cfg Instance.[ monotonic_clock ] test in
      let results = Analyze.all ols Instance.monotonic_clock raw in
      Hashtbl.iter
        (fun name est ->
          let r2 = Option.value ~default:nan (Analyze.OLS.r_square est) in
          match Analyze.OLS.estimates est with
          | Some [ t ] when name = warmup_name ->
            Printf.printf "  %-32s %12.0f ns/run  r2 %.4f %8.0f ns/step\n%!" name t r2
              (t /. warmup_steps)
          | Some [ t ] -> Printf.printf "  %-32s %12.0f ns/run  r2 %.4f\n%!" name t r2
          | _ -> Printf.printf "  %-32s (no estimate)\n%!" name)
        results)
    tests
