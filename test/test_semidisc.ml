(* The shared t1 semi-discretization (Dae.Semidisc): every analytic
   linearization must agree with finite differences of the residual it
   linearizes, and its structured operator with its dense assembly. *)

open Linalg
open Testkit
module Sd = Dae.Semidisc
module Obs = Wampde_obs

let n1 = 7
let n2 = 3

(* VCO-A (n = 4): random states around the oscillator's amplitude, with
   the varactor gap kept positive *)
let vco_a =
  let p = Circuit.Vco.vco_a () in
  let x0 = Circuit.Vco.initial_state p in
  ( "vco-a",
    Circuit.Vco.build p,
    fun rng ->
      Array.mapi
        (fun i xi ->
          let u = Random.State.float rng 2. -. 1. in
          if i = Circuit.Vco.idx_gap then xi *. (1. +. (0.2 *. u)) else xi +. (0.5 *. u))
        x0 )

(* the sinh-limited one-pole system of the MPDE cascade benchmark *)
let sinh_system =
  let beta = 5. in
  ( "sinh",
    Dae.of_ode ~dim:1
      ~rhs:(fun ~t:_ x -> [| -.sinh (beta *. x.(0)) /. beta |])
      ~drhs:(fun ~t:_ x -> [| [| -.cosh (beta *. x.(0)) |] |])
      (),
    fun rng -> [| Random.State.float rng 1. -. 0.5 |] )

let forcing dae j ~t2 =
  Vec.init dae.Dae.dim (fun i -> sin (float_of_int (j + i) +. t2))

type omega_case = Derivative | Fourier | Fixed

let omega_name = function Derivative -> "derivative" | Fourier -> "fourier" | Fixed -> "fixed"

let make_sd dae ~d ~omega_case ~omega =
  let n = dae.Dae.dim in
  match omega_case with
  | Derivative ->
    Sd.make dae ~d ~omega:(Sd.Unknown (Dae.Phase.row (Dae.Phase.Derivative 0) ~n1 ~n ~d))
      ~forcing:None
  | Fourier ->
    let phase = Dae.Phase.Fourier { component = 0; harmonic = 1 } in
    Sd.make dae ~d ~omega:(Sd.Unknown (Dae.Phase.row phase ~n1 ~n ~d)) ~forcing:None
  | Fixed -> Sd.make dae ~d ~omega:(Sd.Fixed omega) ~forcing:(Some (forcing dae))

(* one slice of unknowns: drawn states, then omega when it is unknown *)
let draw_slice sd draw rng ~omega =
  let states = Array.init n1 (fun _ -> draw rng) in
  let y = Array.make (Sd.size sd) omega in
  Array.iteri (fun j x -> Array.blit x 0 y (j * Array.length x) (Array.length x)) states;
  (states, y)

(* [fd] may lack the constant phase rows [dense] carries (g alone) *)
let close ~tol dense fd =
  let ok = ref true in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v -> if Float.abs (v -. dense.(i).(j)) > tol *. (1. +. Float.abs v) then ok := false)
        row)
    fd;
  !ok

let vec_close ~tol a b =
  Array.length a = Array.length b
  && Array.for_all2 (fun x y -> Float.abs (x -. y) <= tol *. (1. +. Float.abs x)) a b

(* dense Jacobian vs central differences, plus operator vs dense matvec *)
let check_lin ~residual ~dense ~apply y rng =
  let fd = Nonlin.Fdjac.jacobian_central residual y in
  let v = Vec.init (Array.length y) (fun _ -> Random.State.float rng 2. -. 1.) in
  close ~tol:1e-5 dense fd && vec_close ~tol:1e-10 (Mat.matvec dense v) (apply v)

let lin_apply (lin : Sd.lin) v =
  match lin.Sd.border with
  | None -> Structured.apply lin.Sd.op v
  | Some { Sd.col; row } -> Structured.apply_bordered lin.Sd.op ~border_col:col ~border_row:row v

let frozen sd = Sd.periodic sd ~p2:1. ~d2:[| [| 0. |] |]

(* [Sd.dense_into] on a fresh matrix *)
let dense (lin : Sd.lin) =
  let size = Structured.dim lin.Sd.op + if lin.Sd.border = None then 0 else 1 in
  let jac = Mat.zeros size size in
  Sd.dense_into lin jac;
  jac

(* [Sd.periodic_dense_into] on a fresh matrix *)
let periodic_dense p lins ~dim =
  let jac = Mat.zeros dim dim in
  Sd.periodic_dense_into p lins jac;
  jac

(* the oracle for [Sd.periodic_dense_into]: each slice's [dense]
   block copied into a zero matrix, then the slow coupling
   (d2_mq / p2) blockdiag(C^q) added entry by entry *)
let periodic_dense_naive ~p2 ~d2 (lins : Sd.lin array) =
  let n2 = Array.length lins in
  let blocks = Array.map dense lins in
  let bs = Mat.rows blocks.(0) in
  let n1 = Array.length lins.(0).Sd.c_blocks in
  let n = Mat.rows lins.(0).Sd.c_blocks.(0) in
  let jac = Mat.zeros (n2 * bs) (n2 * bs) in
  Array.iteri
    (fun m blk -> Array.iteri (fun r row -> Array.blit row 0 jac.((m * bs) + r) (m * bs) bs) blk)
    blocks;
  for m = 0 to n2 - 1 do
    for q = 0 to n2 - 1 do
      let dmq = d2.(m).(q) /. p2 in
      if dmq <> 0. then
        for j = 0 to n1 - 1 do
          for i = 0 to n - 1 do
            for l = 0 to n - 1 do
              let r = (m * bs) + (j * n) + i and c = (q * bs) + (j * n) + l in
              jac.(r).(c) <- jac.(r).(c) +. (dmq *. lins.(q).Sd.c_blocks.(j).(i).(l))
            done
          done
        done
    done
  done;
  jac

let prop (name, dae, draw) (dname, d) omega_case =
  let open QCheck in
  Test.make ~count:8
    ~name:(Printf.sprintf "%s %s %s: linearizations match finite differences" name dname
             (omega_name omega_case))
    (triple (int_bound 1_000_000) (float_range 0.5 1.5) (float_range 0.01 1.))
    (fun (seed, omega, h2) ->
      let rng = Random.State.make [| seed |] in
      let sd = make_sd dae ~d ~omega_case ~omega in
      let t2 = Random.State.float rng 3. in
      (* g, as in the frozen-t2 MPDE steady state: the periodic system
         at n2 = 1, where d2 = [0] leaves g at t2 = 0 *)
      let _, y = draw_slice sd draw rng ~omega in
      let lin = (Sd.periodic_linearize (frozen sd) y).(0) in
      let g_ok =
        check_lin ~residual:(Sd.g sd ~t2:0.) ~dense:(dense lin) ~apply:(lin_apply lin) y rng
      in
      (* theta step from a drawn accepted grid *)
      let states0, y0 = draw_slice sd draw rng ~omega in
      let st =
        Sd.step sd ~t2 ~h:h2 ~theta:0.5 ~q0:(Sd.charges sd ~t2 states0)
          ~g0:(Sd.g sd ~t2:(t2 -. h2) y0)
      in
      let _, y = draw_slice sd draw rng ~omega in
      let lin = Sd.step_linearize st y in
      let step_residual y =
        let dst = Array.make (Sd.size sd) 0. in
        Sd.step_residual_into st y dst;
        dst
      in
      let step_ok =
        check_lin ~residual:step_residual ~dense:(dense lin) ~apply:(lin_apply lin) y rng
      in
      (* periodic in t2 over n2 slices *)
      let p = Sd.periodic sd ~p2:(10. *. h2) ~d2:(Fourier.Series.diff_matrix n2) in
      let slice m = snd (draw_slice sd draw rng ~omega:(omega +. (0.1 *. float_of_int m))) in
      let y = Array.concat (List.init n2 slice) in
      let lins = Sd.periodic_linearize p y in
      let periodic_ok =
        check_lin ~residual:(Sd.periodic_residual p)
          ~dense:(periodic_dense p lins ~dim:(Array.length y))
          ~apply:(fun v ->
            let out = Array.make (Array.length v) 0. in
            Sd.periodic_apply_into p lins v out;
            out)
          y rng
      in
      g_ok && step_ok && periodic_ok)

let prop_tests =
  List.concat_map
    (fun system ->
      List.concat_map
        (fun d ->
          List.map
            (fun omega_case -> QCheck_alcotest.to_alcotest (prop system d omega_case))
            [ Derivative; Fourier; Fixed ])
        [
          ("spectral", Fourier.Series.diff_matrix n1);
          ("fd4", Fourier.Series.diff_matrix_fd ~order:4 n1);
        ])
    [ vco_a; sinh_system ]

let unit_tests =
  [
    Alcotest.test_case "periodic residual evaluates q once per grid point" `Quick (fun () ->
        Obs.Metrics.with_isolated (fun () ->
            Obs.set_enabled true;
            let _, dae, draw = sinh_system in
            let d = Fourier.Series.diff_matrix n1 in
            let sd = Sd.make dae ~d ~omega:(Sd.Fixed 1.) ~forcing:None in
            let p = Sd.periodic sd ~p2:20. ~d2:(Fourier.Series.diff_matrix n2) in
            let rng = Random.State.make [| 7 |] in
            let y = Array.concat (List.init n2 (fun _ -> snd (draw_slice sd draw rng ~omega:1.))) in
            let evals = Obs.Metrics.counter "dae.evals" in
            let evals0 = Obs.Metrics.count evals in
            ignore (Sd.periodic_residual p y);
            Alcotest.(check int) "circuit evaluations" (n1 * n2) (Obs.Metrics.count evals - evals0)));
    Alcotest.test_case "dense_into on a reused LU buffer matches fresh factor and solve" `Quick
      (fun () ->
        (* the envelope's dense chord refills and refactors one buffer:
           after an in-place LU its rows are permuted and hold L and U,
           so every refill must write every entry (the bordered zero
           corner too) to give the bits of a fresh factor + solve *)
        let name, dae, draw = vco_a in
        let d = Fourier.Series.diff_matrix n1 in
        let sd = make_sd dae ~d ~omega_case:Derivative ~omega:1. in
        let size = Sd.size sd in
        let rng = Random.State.make [| 11 |] in
        (* a cyclic shift plus a small perturbation: partial pivoting
           must swap rows *)
        let pivoting =
          Mat.init size size (fun i j ->
              if j = (i + 1) mod size then 3. +. float_of_int i
              else 0.01 *. sin (float_of_int ((7 * i) + j)))
        in
        let blit m jac = Array.iteri (fun i row -> Array.blit row 0 jac.(i) 0 size) m in
        let lins =
          List.init 3 (fun _ ->
              (Sd.periodic_linearize (frozen sd) (snd (draw_slice sd draw rng ~omega:1.))).(0))
        in
        let bordered lin = ("bordered", Sd.dense_into lin, dense lin) in
        let jac = Mat.zeros size size and perm = Array.make size 0 and x = Array.make size 0. in
        let b = Vec.init size (fun i -> cos (float_of_int i)) in
        let bits v = Array.map Int64.bits_of_float v in
        List.iteri
          (fun k (kind, fill, fresh) ->
            fill jac;
            Lu.solve_into (Lu.factor_into jac ~perm) b x;
            Alcotest.(check (array int64))
              (Printf.sprintf "%s: matrix %d (%s)" name k kind)
              (bits (Lu.solve (Lu.factor fresh) b))
              (bits x))
          [
            ("pivoting", blit pivoting, pivoting);
            bordered (List.nth lins 0);
            bordered (List.nth lins 1);
            ("pivoting", blit pivoting, pivoting);
            bordered (List.nth lins 2);
          ]);
    Alcotest.test_case "periodic_dense_into refills a factored buffer bitwise" `Quick (fun () ->
        (* the periodic solve keeps one stacked Jacobian and factors it
           in place: each refill meets rows the LU has permuted and
           overwritten with L and U, and must still give the bits of a
           fresh assembly, bordered omega corners included *)
        List.iter
          (fun ((name, dae, draw), omega_case) ->
            let d = Fourier.Series.diff_matrix n1 in
            let sd = make_sd dae ~d ~omega_case ~omega:1. in
            let p2 = 20. and d2 = Fourier.Series.diff_matrix n2 in
            let p = Sd.periodic sd ~p2 ~d2 in
            let dim = n2 * Sd.size sd in
            let rng = Random.State.make [| 13 |] in
            let draw_y () =
              Array.concat
                (List.init n2 (fun m ->
                     snd (draw_slice sd draw rng ~omega:(1. +. (0.1 *. float_of_int m)))))
            in
            let jac = Mat.zeros dim dim and perm = Array.make dim 0 in
            let bits = Array.map (Array.map Int64.bits_of_float) in
            for k = 0 to 2 do
              let lins = Sd.periodic_linearize p (draw_y ()) in
              Sd.periodic_dense_into p lins jac;
              Alcotest.(check bool)
                (Printf.sprintf "%s %s: refill %d" name (omega_name omega_case) k)
                true
                (bits jac = bits (periodic_dense_naive ~p2 ~d2 lins));
              ignore (Lu.factor_into jac ~perm);
              Alcotest.(check bool)
                (Printf.sprintf "%s: the factorization swapped rows" name)
                true
                (perm <> Array.init dim Fun.id)
            done)
          [ (vco_a, Derivative); (sinh_system, Fixed) ]);
    Alcotest.test_case "make rejects a phase row of the wrong length" `Quick (fun () ->
        let _, dae, _ = vco_a in
        Alcotest.check_raises "row"
          (Invalid_argument "Dae.Semidisc.make: phase row length differs from n1 * dim")
          (fun () ->
            ignore
              (Sd.make dae ~d:(Fourier.Series.diff_matrix n1) ~omega:(Sd.Unknown [| 1. |])
                 ~forcing:None)));
  ]

let suites = [ ("semidisc", unit_tests @ prop_tests) ]
