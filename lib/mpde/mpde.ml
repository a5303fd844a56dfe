open Linalg
module Obs = Wampde_obs

type system = { dae : Dae.t; p1 : float; b_fast : t1:float -> t2:float -> Vec.t }

type result = { t2 : Vec.t; slices : Vec.t array array; p1 : float; p2 : float option }

exception Solve_failure of { stage : string; report : Nonlin.Newton.report }

let () =
  Printexc.register_printer (function
    | Solve_failure { stage; report } ->
      Some
        (Printf.sprintf "Mpde.Solve_failure: %s did not converge (residual %.3e after %d iterations)"
           stage report.Nonlin.Newton.residual_norm report.Nonlin.Newton.iterations)
    | _ -> None)

let newton_options =
  { Nonlin.Newton.default_options with max_iterations = 50; residual_tol = 1e-9 }

(* The MPDE is the WaMPDE with omega fixed at 1/p1 and the fast forcing
   b_fast(t1_j, t2) added at each grid point. *)
let semidisc sys ~n1 =
  Dae.Semidisc.make sys.dae ~d:(Fourier.Series.diff_matrix n1)
    ~omega:(Dae.Semidisc.Fixed (1. /. sys.p1))
    ~forcing:
      (Some (fun j ~t2 -> sys.b_fast ~t1:(sys.p1 *. float_of_int j /. float_of_int n1) ~t2))

(* a periodic-in-t2 solve through the one periodic driver *)
let periodic ?cascade sys ~n1 ~n2 ~p2 ~options ~solver ~label ~fn guess =
  match
    Wampde.Quasiperiodic.solve_semidisc ?cascade (semidisc sys ~n1) ~p2 ~n2 ~options ~solver
      ~label ~fn ~omega:(Array.make n2 (1. /. sys.p1)) guess
  with
  | Ok sol -> sol
  | Error report -> raise (Solve_failure { stage = fn; report })

let periodic_initial sys ~n1 ~guess =
  if n1 mod 2 = 0 then invalid_arg "Mpde.periodic_initial: n1 must be odd";
  Obs.Span.span
    ~attrs:[ ("n1", Obs.Span.Int n1); ("dim", Obs.Span.Int sys.dae.Dae.dim) ]
    "mpde.periodic_initial"
  @@ fun () ->
  Obs.Scope.with_scope "mpde" @@ fun () ->
  let sol =
    periodic sys ~n1 ~n2:1 ~p2:1. ~options:newton_options ~solver:Structured.auto
      ~label:"mpde.initial" ~fn:"Mpde.periodic_initial" [| guess |]
  in
  sol.Wampde.Quasiperiodic.slices.(0)

let simulate ?(solver = Structured.auto) sys ~n1 ~t2_end ~h2 ~init =
  if n1 mod 2 = 0 then invalid_arg "Mpde.simulate: n1 must be odd";
  let sd = semidisc sys ~n1 in
  Dae.Semidisc.check_grid sd ~fn:"Mpde.simulate" init;
  Obs.Span.span
    ~attrs:
      [
        ("n1", Obs.Span.Int n1);
        ("dim", Obs.Span.Int sys.dae.Dae.dim);
        ("t2", Obs.Span.Float t2_end);
      ]
    "mpde.simulate"
  @@ fun () ->
  (* the envelope's fixed-step march on the fixed-omega, forced system *)
  let res =
    Wampde.Envelope.march sd
      ~options:(Wampde.Envelope.default_options ~n1 ~solver ())
      ~t2_end ~h2 ~states:init ~omega:(1. /. sys.p1)
  in
  { t2 = res.Wampde.Envelope.t2; slices = res.Wampde.Envelope.slices; p1 = sys.p1; p2 = None }

let quasiperiodic ?cascade sys ~n1 ~n2 ~p2 ~guess =
  if n1 mod 2 = 0 || n2 mod 2 = 0 then invalid_arg "Mpde.quasiperiodic: n1, n2 must be odd";
  Obs.Span.span
    ~attrs:
      [
        ("n1", Obs.Span.Int n1);
        ("n2", Obs.Span.Int n2);
        ("dim", Obs.Span.Int sys.dae.Dae.dim);
      ]
    "mpde.quasiperiodic"
  @@ fun () ->
  Obs.Scope.with_scope "mpde" @@ fun () ->
  let sol =
    periodic ?cascade sys ~n1 ~n2 ~p2
      ~options:{ newton_options with max_iterations = 80 }
      ~solver:Structured.Dense ~label:"mpde.quasiperiodic" ~fn:"Mpde.quasiperiodic" guess
  in
  { t2 = sol.Wampde.Quasiperiodic.t2; slices = sol.Wampde.Quasiperiodic.slices; p1 = sys.p1;
    p2 = Some p2 }

let warping res =
  Sigproc.Warp.make ~t2:res.t2
    ~omega:(Array.make (Array.length res.t2) (1. /. res.p1))
    ~slices:res.slices ?p2:res.p2 ()
