(* Tests for the structured matrix-free collocation operator and its
   FFT-diagonalized averaged-block preconditioner (Linalg.Structured),
   plus the envelope solver's Krylov path. *)
open Linalg
open Testkit

let two_pi = 2. *. Float.pi

let precond_apply pc v =
  let out = Array.make (Array.length v) 0. in
  Structured.precond_apply_into pc v out;
  out

(* Envelope-step-like operator pieces from the VCO steady orbit:
   J = h theta omega (D (x) dq) + blockdiag(dq + h theta df), bordered
   by the omega column h theta (D Q) and the phase row. *)
let vco_step_system () =
  let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
  let dae = Circuit.Vco.build p0 in
  let n1 = 25 in
  let orbit = Steady.Oscillator.find dae ~n1 ~period_hint:1.333 (Circuit.Vco.initial_state p0) in
  let n = dae.Dae.dim in
  let d = Fourier.Series.diff_matrix n1 in
  let states = orbit.Steady.Oscillator.grid in
  let omega = orbit.Steady.Oscillator.omega in
  let h2 = 0.1 and theta = 0.5 in
  let alpha = h2 *. theta *. omega in
  let c_blocks = Array.map dae.Dae.dq states in
  let b_blocks =
    Array.init n1 (fun j ->
        let gj = dae.Dae.df ~t:0. states.(j) in
        Mat.init n n (fun i l -> c_blocks.(j).(i).(l) +. (h2 *. theta *. gj.(i).(l))))
  in
  let op = Structured.make_op ~alpha ~d ~c_blocks ~b_blocks in
  let qs = Array.map dae.Dae.q states in
  let border_col =
    Vec.init (n1 * n) (fun idx ->
        let j = idx / n and i = idx mod n in
        let s = ref 0. in
        for k = 0 to n1 - 1 do
          s := !s +. (d.(j).(k) *. qs.(k).(i))
        done;
        h2 *. theta *. !s)
  in
  let border_row = Dae.Phase.row (Dae.Phase.Derivative 0) ~n1 ~n ~d in
  (op, border_col, border_row)

let unit_tests =
  [
    Alcotest.test_case "matvec matches FD directional derivative of a DAE residual" `Quick
      (fun () ->
        (* nonlinear LC oscillator; the structured op must agree with a
           finite-difference Jacobian-vector product of the actual
           theta-step collocation residual *)
        let l = 0.8 in
        let dae =
          Dae.make ~dim:2
            ~q:(fun x -> [| x.(0); l *. x.(1) |])
            ~f:(fun ~t:_ x ->
              [| x.(1) -. x.(0) +. (0.3 *. (x.(0) ** 3.)); -.x.(0) |])
            ~dq:(fun _ -> [| [| 1.; 0. |]; [| 0.; l |] |])
            ~df:(fun ~t:_ x -> [| [| -1. +. (0.9 *. x.(0) *. x.(0)); 1. |]; [| -1.; 0. |] |])
            ()
        in
        let n = 2 and n1 = 9 in
        let d = Fourier.Series.diff_matrix n1 in
        let omega = 1.3 and h2 = 0.2 and theta = 0.5 in
        let states =
          Array.init n1 (fun j ->
              let t1 = float_of_int j /. float_of_int n1 in
              [| cos (two_pi *. t1); 0.5 *. sin (two_pi *. t1) |])
        in
        let pack states = Array.concat (Array.to_list states) in
        let residual y =
          let states = Array.init n1 (fun j -> Array.sub y (j * n) n) in
          let qs = Array.map dae.Dae.q states in
          Vec.init (n1 * n) (fun idx ->
              let j = idx / n and i = idx mod n in
              let s = ref 0. in
              for k = 0 to n1 - 1 do
                s := !s +. (d.(j).(k) *. qs.(k).(i))
              done;
              qs.(j).(i)
              +. (h2 *. theta *. ((omega *. !s) +. (dae.Dae.f ~t:0. states.(j)).(i))))
        in
        let c_blocks = Array.map dae.Dae.dq states in
        let b_blocks =
          Array.init n1 (fun j ->
              let gj = dae.Dae.df ~t:0. states.(j) in
              Mat.init n n (fun i l -> c_blocks.(j).(i).(l) +. (h2 *. theta *. gj.(i).(l))))
        in
        let op =
          Structured.make_op ~alpha:(h2 *. theta *. omega) ~d ~c_blocks ~b_blocks
        in
        let y = pack states in
        let v = Vec.init (n1 * n) (fun i -> sin (float_of_int (3 * i))) in
        let jv = Structured.apply op v in
        let jv_fd = Nonlin.Fdjac.directional residual y v in
        Alcotest.(check bool) "matches FD" true (Vec.approx_equal ~tol:1e-5 jv jv_fd));
    Alcotest.test_case "precond inverts the operator exactly for constant blocks" `Quick
      (fun () ->
        (* odd n1 on both sides of every size the solvers use *)
        List.iter
          (fun n1 ->
            let n = 3 in
            let d = Fourier.Series.diff_matrix n1 in
            let c =
              Mat.init n n (fun i j -> if i = j then 2. else 0.3 /. float_of_int (1 + i + j))
            in
            let b = Mat.init n n (fun i j -> if i = j then 5. else sin (float_of_int (i - j))) in
            let op =
              Structured.make_op ~alpha:0.7 ~d ~c_blocks:(Array.make n1 c)
                ~b_blocks:(Array.make n1 b)
            in
            let pc = Structured.make_precond [| op |] in
            let r = Vec.init (n1 * n) (fun i -> cos (float_of_int i)) in
            let z = precond_apply pc r in
            let back = Structured.apply op z in
            Alcotest.(check bool)
              (Printf.sprintf "A (M^-1 r) = r at n1 = %d" n1)
              true
              (Vec.approx_equal ~tol:1e-8 back r))
          [ 3; 15; 17; 25; 65; 161 ];
        (* the real DFT needs an odd grid *)
        let d = Fourier.Series.diff_matrix_fd ~order:2 12 in
        let op =
          Structured.make_op ~alpha:1. ~d ~c_blocks:(Array.make 12 (Mat.identity 2))
            ~b_blocks:(Array.make 12 (Mat.identity 2))
        in
        Alcotest.check_raises "even n1"
          (Invalid_argument "Rdft.of_size: length 12 must be odd") (fun () ->
            ignore (Structured.make_precond [| op |])));
    Alcotest.test_case "bordered precond is the exact bordered inverse" `Quick (fun () ->
        let n = 2 and n1 = 7 in
        let nd = n * n1 in
        let d = Fourier.Series.diff_matrix n1 in
        let c = Mat.init n n (fun i j -> if i = j then 1.5 else 0.2) in
        let b = Mat.init n n (fun i j -> if i = j then 3. else -0.4) in
        let op =
          Structured.make_op ~alpha:0.9 ~d ~c_blocks:(Array.make n1 c) ~b_blocks:(Array.make n1 b)
        in
        let border_col = Vec.init nd (fun i -> sin (float_of_int i)) in
        let border_row = Vec.init nd (fun i -> cos (float_of_int (2 * i))) in
        let pc = Structured.make_precond [| op |] in
        let bp = Structured.make_bordered pc ~cols:[| border_col |] ~rows:[| border_row |] in
        let rhs = Vec.init (nd + 1) (fun i -> float_of_int ((i mod 7) - 3)) in
        let z = Array.make (nd + 1) 0. in
        Structured.bordered_apply_into bp rhs z;
        (* constant blocks: the block preconditioner is exact, so the
           bordered Schur formula must reproduce the dense solve *)
        let dense = Mat.zeros (nd + 1) (nd + 1) in
        Structured.dense_into op dense;
        for i = 0 to nd - 1 do
          dense.(i).(nd) <- border_col.(i);
          dense.(nd).(i) <- border_row.(i)
        done;
        let z_dense = Lu.solve (Lu.factor dense) rhs in
        Alcotest.(check bool) "exact" true (Vec.approx_equal ~tol:1e-7 z z_dense));
    Alcotest.test_case "slice-coupled precond inverts the periodic operator for t1-constant blocks"
      `Quick (fun () ->
        (* n2 slices, each with its own C, B and alpha, constant in t1,
           coupled as the periodic solve couples them: slice m's rows
           add (d2_mq / p2) blockdiag(C^q) applied to slice q.  The
           preconditioner then holds the whole operator, so M^-1 (J v)
           is v, with the omega border (slices of n1 n + 1 unknowns)
           and without it *)
        let n = 2 and n1 = 7 and p2 = 3.7 in
        let nd = n * n1 in
        let d = Fourier.Series.diff_matrix n1 in
        List.iter
          (fun (n2, bordered) ->
            let f m a b = sin (float_of_int ((17 * m) + (5 * a) + b)) in
            let c m = Mat.init n n (fun i l -> (if i = l then 2. else 0.) +. (0.3 *. f m i l)) in
            let b m = Mat.init n n (fun i l -> (if i = l then 4. else 0.) +. (0.5 *. f (m + 9) i l)) in
            let ops =
              Array.init n2 (fun m ->
                  Structured.make_op ~alpha:(0.6 +. (0.1 *. float_of_int m)) ~d
                    ~c_blocks:(Array.make n1 (c m)) ~b_blocks:(Array.make n1 (b m)))
            in
            let coupling =
              let d2 = Fourier.Series.diff_matrix n2 in
              Mat.init n2 n2 (fun m q -> d2.(m).(q) /. p2)
            in
            let bs = if bordered then nd + 1 else nd in
            let dim = n2 * bs in
            let jac = Mat.zeros dim dim and blk = Mat.zeros nd nd in
            let cols = Array.init n2 (fun m -> Vec.init nd (fun i -> cos (float_of_int ((3 * i) + m)))) in
            let rows = Array.init n2 (fun m -> Vec.init nd (fun i -> sin (float_of_int (i + (2 * m))))) in
            for m = 0 to n2 - 1 do
              Structured.dense_into ops.(m) blk;
              for r = 0 to nd - 1 do
                Array.blit blk.(r) 0 jac.((m * bs) + r) (m * bs) nd
              done;
              if bordered then
                for i = 0 to nd - 1 do
                  jac.((m * bs) + i).((m * bs) + nd) <- cols.(m).(i);
                  jac.((m * bs) + nd).((m * bs) + i) <- rows.(m).(i)
                done;
              for q = 0 to n2 - 1 do
                for j = 0 to n1 - 1 do
                  for i = 0 to n - 1 do
                    for l = 0 to n - 1 do
                      let r = (m * bs) + (j * n) + i and col = (q * bs) + (j * n) + l in
                      jac.(r).(col) <- jac.(r).(col) +. (coupling.(m).(q) *. (c q).(i).(l))
                    done
                  done
                done
              done
            done;
            let v = Vec.init dim (fun i -> cos (0.7 *. float_of_int i)) in
            let jv = Array.map (fun row -> Array.fold_left ( +. ) 0. (Array.mapi (fun k a -> a *. v.(k)) row)) jac in
            let pc = Structured.make_precond ~coupling ops in
            let back = Array.make dim 0. in
            if bordered then
              Structured.bordered_apply_into (Structured.make_bordered pc ~cols ~rows) jv back
            else Structured.precond_apply_into pc jv back;
            let err = Vec.norm_inf (Vec.sub back v) in
            Alcotest.(check bool)
              (Printf.sprintf "n2 = %d, bordered %b: |M^-1 J v - v| = %.2e" n2 bordered err)
              true (err <= 1e-12))
          [ (1, false); (1, true); (3, false); (3, true); (7, false); (7, true) ]);
    Alcotest.test_case "a refill into kept buffers is bitwise a fresh build" `Quick (fun () ->
        (* the periodic and envelope Krylov paths rebuild their
           preconditioner every Newton iteration into the buffers of the
           last build: after a build at another iterate, the refill
           must return those buffers and apply exactly as a fresh
           build; a build of another shape must not touch them *)
        let n = 2 in
        let f seed a b = sin (float_of_int ((31 * seed) + (7 * a) + b)) in
        (* slice m's operator at iterate [seed], blocks varying along t1 *)
        let system ~seed ~n1 ~n2 =
          let d = Fourier.Series.diff_matrix n1 in
          let block base seed' j =
            Mat.init n n (fun i l -> (if i = l then base else 0.) +. (0.3 *. f seed' ((n * j) + i) l))
          in
          let ops =
            Array.init n2 (fun m ->
                let sm = seed + (13 * m) in
                Structured.make_op ~alpha:(0.5 +. (0.1 *. f sm 1 2)) ~d
                  ~c_blocks:(Array.init n1 (block 2. sm))
                  ~b_blocks:(Array.init n1 (block 4. (sm + 5))))
          in
          let border k = Array.init n2 (fun m -> Vec.init (n1 * n) (fun i -> f (seed + k + m) i 3)) in
          let coupling =
            let d2 = Fourier.Series.diff_matrix n2 in
            Mat.init n2 n2 (fun m q -> d2.(m).(q) /. 2.9)
          in
          (ops, coupling, border 1, border 2)
        in
        let bits v = Array.map Int64.bits_of_float v in
        let applies ~n1 ~n2 pc bp =
          let v = Vec.init (n2 * ((n1 * n) + 1)) (fun i -> cos (0.37 *. float_of_int i)) in
          let out = Array.make (Array.length v) 0. and bout = Array.make (Array.length v) 0. in
          Structured.precond_apply_into pc v out;
          Structured.bordered_apply_into bp v bout;
          (bits out, bits bout)
        in
        let fresh ~seed ~n1 ~n2 =
          let ops, coupling, cols, rows = system ~seed ~n1 ~n2 in
          let pc = Structured.make_precond ~coupling ops in
          (pc, Structured.make_bordered pc ~cols ~rows)
        in
        let refill ~seed ~n1 ~n2 (pc, bp) =
          let ops, coupling, cols, rows = system ~seed ~n1 ~n2 in
          let pc = Structured.make_precond ~into:pc ~coupling ops in
          (pc, Structured.make_bordered ~into:bp pc ~cols ~rows)
        in
        let same = Alcotest.(pair (array int64) (array int64)) in
        List.iter
          (fun (n1, n2) ->
            let kept = fresh ~seed:1 ~n1 ~n2 in
            let pc, bp = refill ~seed:2 ~n1 ~n2 kept in
            let what = Printf.sprintf "n1 = %d, n2 = %d" n1 n2 in
            Alcotest.(check bool) (what ^ ": same precond") true (pc == fst kept);
            Alcotest.(check bool) (what ^ ": same bordered") true (bp == snd kept);
            let want_pc, want_bp = fresh ~seed:2 ~n1 ~n2 in
            Alcotest.check same (what ^ ": refill applies as fresh")
              (applies ~n1 ~n2 want_pc want_bp) (applies ~n1 ~n2 pc bp);
            (* another t1 grid, then another slice count *)
            let pc', bp' = refill ~seed:3 ~n1:(n1 + 2) ~n2 kept in
            Alcotest.(check bool) (what ^ ": n1 mismatch allocates") false
              (pc' == pc || bp' == bp);
            let want_pc, want_bp = fresh ~seed:3 ~n1:(n1 + 2) ~n2 in
            Alcotest.check same (what ^ ": n1 mismatch applies as fresh")
              (applies ~n1:(n1 + 2) ~n2 want_pc want_bp)
              (applies ~n1:(n1 + 2) ~n2 pc' bp');
            let pc', bp' = refill ~seed:4 ~n1 ~n2:(n2 + 2) kept in
            Alcotest.(check bool) (what ^ ": n2 mismatch allocates") false
              (pc' == pc || bp' == bp);
            (* the kept buffers still refill after the mismatches *)
            let pc, bp = refill ~seed:5 ~n1 ~n2 kept in
            Alcotest.(check bool) (what ^ ": kept again") true (pc == fst kept && bp == snd kept);
            let want_pc, want_bp = fresh ~seed:5 ~n1 ~n2 in
            Alcotest.check same (what ^ ": second refill applies as fresh")
              (applies ~n1 ~n2 want_pc want_bp) (applies ~n1 ~n2 pc bp))
          [ (7, 1); (9, 3) ]);
    Alcotest.test_case "preconditioned gmres needs <= 1/3 the iterations on a VCO step system"
      `Quick (fun () ->
        let op, border_col, border_row = vco_step_system () in
        let nd = Structured.dim op in
        let b = Vec.init (nd + 1) (fun i -> sin (float_of_int (7 * i) /. 11.)) in
        let matvec = Structured.apply_bordered_into op ~border_col ~border_row in
        let plain = Gmres.solve ~matvec ~restart:(nd + 1) ~max_iter:(nd + 1) ~tol:1e-8 b in
        let pc = Structured.make_precond [| op |] in
        let bp = Structured.make_bordered pc ~cols:[| border_col |] ~rows:[| border_row |] in
        let precond =
          Gmres.solve ~matvec ~m_inv:(Structured.bordered_apply_into bp) ~restart:(nd + 1)
            ~max_iter:(nd + 1) ~tol:1e-8 b
        in
        Alcotest.(check bool) "preconditioned converged" true precond.Gmres.converged;
        Alcotest.(check bool)
          (Printf.sprintf "%d precond vs %d plain iterations" precond.Gmres.iterations
             plain.Gmres.iterations)
          true
          (precond.Gmres.iterations * 3 <= plain.Gmres.iterations));
    Alcotest.test_case "envelope Krylov path reproduces the dense omega trajectory" `Quick
      (fun () ->
        let p = Circuit.Vco.vco_a () in
        let dae = Circuit.Vco.build p in
        let p0 = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
        let orbit =
          Steady.Oscillator.find (Circuit.Vco.build p0) ~n1:25 ~period_hint:1.333
            (Circuit.Vco.initial_state p0)
        in
        let run solver =
          let options = Wampde.Envelope.default_options ~n1:25 ~solver () in
          Wampde.Envelope.simulate dae ~options ~t2_end:2. ~h2:0.25 ~init:orbit
        in
        let dense = run Structured.Dense in
        let krylov = run Structured.Krylov in
        Alcotest.(check int) "same step count"
          (Array.length dense.Wampde.Envelope.omega)
          (Array.length krylov.Wampde.Envelope.omega);
        Array.iteri
          (fun i om_d ->
            let om_k = krylov.Wampde.Envelope.omega.(i) in
            let rel = Float.abs (om_k -. om_d) /. Float.max 1e-12 (Float.abs om_d) in
            if rel > 1e-6 then
              Alcotest.failf "omega mismatch at index %d: dense %.9g krylov %.9g (rel %.2e)" i
                om_d om_k rel)
          dense.Wampde.Envelope.omega);
  ]

(* Property-based tests: a random linear DAE (q = C x, f = B x) has the
   structured operator as its exact collocation Jacobian, so the
   matrix-free product must match the dense assembly column by column. *)
let prop_tests =
  let open QCheck in
  let finite_float = Gen.float_range (-3.) 3. in
  let mat_gen n =
    Gen.map
      (fun rows ->
        Array.mapi
          (fun i row ->
            let r = Array.copy row in
            r.(i) <- r.(i) +. 6.;
            r)
          rows)
      (Gen.array_size (Gen.return n) (Gen.array_size (Gen.return n) finite_float))
  in
  let system_gen =
    Gen.map3
      (fun cs bs alpha -> (cs, bs, alpha))
      (Gen.array_size (Gen.return 9) (mat_gen 3))
      (Gen.array_size (Gen.return 9) (mat_gen 3))
      (Gen.float_range 0.1 2.)
  in
  (* blocks of finite values, +-0, +-inf and NaNs of two payloads,
     n1 odd up to 27, n up to 6, written at an offset of 0 to 3 into a
     NaN-filled matrix one larger than the block on every side, whose
     entries outside the block dense_into must leave alone *)
  let assembly_gen =
    let open Gen in
    let entry = Test_linalg.matvec_entry in
    let* n1 = map (fun m -> (2 * m) + 1) (int_range 0 13) in
    let* n = int_range 1 6 in
    let block = array_size (return n) (array_size (return n) entry) in
    let* d = array_size (return n1) (array_size (return n1) entry) in
    let* cs = array_size (return n1) block in
    let* bs = array_size (return n1) block in
    let* alpha = oneof [ float_range (-2.) 2.; return Float.nan ] in
    let* off = int_range 0 3 in
    return (off, alpha, d, cs, bs)
  in
  [
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"dense_into is bitwise the block-by-block assembly" ~count:200
         (make
            ~print:(fun (off, alpha, d, cs, _) ->
              Printf.sprintf "off = %d, alpha = %h, n1 = %d, n = %d" off alpha (Array.length d)
                (Array.length cs.(0)))
            assembly_gen)
         (fun (off, alpha, d, c_blocks, b_blocks) ->
           let size = off + (Array.length d * Array.length c_blocks.(0)) + 1 in
           let filled () = Mat.init size size (fun _ _ -> Float.nan) in
           let got = filled () and want = filled () in
           Structured.dense_into ~off (Structured.make_op ~alpha ~d ~c_blocks ~b_blocks) got;
           structured_dense_naive ~off ~alpha ~d ~c_blocks ~b_blocks want;
           let bits = Array.map (Array.map Int64.bits_of_float) in
           bits got = bits want));
    Alcotest.test_case "dense_into rejects a jac or C block too small" `Quick (fun () ->
        (* the fill runs unchecked, so the sizes are checked first *)
        let n1 = 3 and n = 2 in
        let d = Fourier.Series.diff_matrix n1 and block = Mat.identity n in
        let op c_blocks = Structured.make_op ~alpha:1. ~d ~c_blocks ~b_blocks:(Array.make n1 block) in
        let err = Invalid_argument "Structured.dense_into: jac or a C block too small" in
        let full = op (Array.make n1 block) in
        Alcotest.check_raises "short jac" err (fun () ->
            Structured.dense_into full (Mat.zeros ((n1 * n) - 1) (n1 * n)));
        Alcotest.check_raises "short jac row" err (fun () ->
            let jac = Mat.zeros (n1 * n) (n1 * n) in
            jac.(4) <- Array.make ((n1 * n) - 1) 0.;
            Structured.dense_into full jac);
        Alcotest.check_raises "offset past the end" err (fun () ->
            Structured.dense_into ~off:1 full (Mat.zeros (n1 * n) (n1 * n)));
        Alcotest.check_raises "negative offset"
          (Invalid_argument "Structured.dense_into: negative offset") (fun () ->
            Structured.dense_into ~off:(-1) full (Mat.zeros (n1 * n) (n1 * n)));
        Alcotest.check_raises "short C row" err (fun () ->
            Structured.dense_into
              (op [| block; [| [| 1.; 0. |]; [| 1. |] |]; block |])
              (Mat.zeros (n1 * n) (n1 * n))));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"structured matvec matches dense columns to 1e-10" ~count:40
         (make system_gen)
         (fun (cs, bs, alpha) ->
           let n1 = Array.length cs and n = 3 in
           let d = Fourier.Series.diff_matrix n1 in
           let op = Structured.make_op ~alpha ~d ~c_blocks:cs ~b_blocks:bs in
           let dense = Mat.zeros (n1 * n) (n1 * n) in
           Structured.dense_into op dense;
           let ok = ref true in
           for j = 0 to (n1 * n) - 1 do
             let e = Array.make (n1 * n) 0. in
             e.(j) <- 1.;
             let col = Structured.apply op e in
             for i = 0 to (n1 * n) - 1 do
               if Float.abs (col.(i) -. dense.(i).(j)) > 1e-10 then ok := false
             done
           done;
           !ok));
    QCheck_alcotest.to_alcotest
      (Test.make ~name:"preconditioned gmres solves the structured system" ~count:15
         (make system_gen)
         (fun (cs, bs, alpha) ->
           let n1 = Array.length cs and n = 3 in
           let d = Fourier.Series.diff_matrix n1 in
           let op = Structured.make_op ~alpha ~d ~c_blocks:cs ~b_blocks:bs in
           let b = Vec.init (n1 * n) (fun i -> sin (float_of_int i)) in
           let pc = Structured.make_precond [| op |] in
           let res =
             Gmres.solve ~matvec:(Structured.apply_into op)
               ~m_inv:(Structured.precond_apply_into pc) ~restart:80 ~tol:1e-11 b
           in
           res.Gmres.converged
           && Vec.approx_equal ~tol:1e-6 (Structured.apply op res.Gmres.x) b));
  ]

let suites = [ ("structured", unit_tests @ prop_tests) ]
