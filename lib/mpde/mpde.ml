open Linalg
module Obs = Wampde_obs

type system = { dae : Dae.t; p1 : float; b_fast : t1:float -> t2:float -> Vec.t }

type result = { t2 : Vec.t; slices : Vec.t array array; p1 : float }

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

let pack grid = Array.concat (Array.to_list grid)

(* Every entry point takes a fast-time grid as [n1] states of the DAE's
   dimension; reject any other shape before [pack] flattens it. *)
let check_grid ~fn sys ~n1 grid =
  let dim = sys.dae.Dae.dim in
  if Array.length grid <> n1 || Array.exists (fun x -> Array.length x <> dim) grid then
    invalid_arg (Printf.sprintf "Mpde.%s: expected %d states of dimension %d" fn n1 dim)

(* Matrix-free Newton direction through the structured collocation
   operator; falls back to its dense assembly when GMRES stalls or the
   preconditioner degenerates. *)
let structured_linear_solve ~linearize x r =
  let lin = linearize x in
  let fallback () =
    Structured.fallback_to_dense ();
    let jac = Dae.Semidisc.dense lin in
    Lu.solve (Lu.factor_into jac ~perm:(Array.make (Mat.rows jac) 0)) r
  in
  match Structured.solve_op lin.Dae.Semidisc.op r with
  | res when res.Gmres.converged -> res.Gmres.x
  | _ -> fallback ()
  | exception (Cx.Clu.Singular _ | Failure _) -> fallback ()

let periodic_initial ?(solver = Structured.auto) sys ~n1 ~guess =
  if n1 mod 2 = 0 then invalid_arg "Mpde.periodic_initial: n1 must be odd";
  check_grid ~fn:"periodic_initial" sys ~n1 guess;
  Obs.Span.span
    ~attrs:[ ("n1", Obs.Span.Int n1); ("dim", Obs.Span.Int sys.dae.Dae.dim) ]
    "mpde.periodic_initial"
  @@ fun () ->
  Obs.Scope.with_scope "mpde" @@ fun () ->
  let sd = semidisc sys ~n1 in
  let residual y = Dae.Semidisc.g sd ~t2:0. y in
  let linearize y = Dae.Semidisc.linearize sd ~t2:0. y in
  let jacobian y = Dae.Semidisc.dense (linearize y) in
  let linear_solve =
    if Structured.use_krylov solver ~dim:(Dae.Semidisc.size sd) then
      Some (structured_linear_solve ~linearize)
    else None
  in
  let outcome =
    Nonlin.Polyalg.solve ~options:newton_options ~label:"mpde.initial" ?linear_solve ~jacobian
      ~residual (pack guess)
  in
  let report = outcome.Nonlin.Polyalg.report in
  if not report.Nonlin.Newton.converged then
    raise (Solve_failure { stage = "Mpde.periodic_initial"; report });
  Dae.Semidisc.unpack sd report.Nonlin.Newton.x ~off:0

let simulate ?(solver = Structured.auto) sys ~n1 ~t2_end ~h2 ~init =
  if n1 mod 2 = 0 then invalid_arg "Mpde.simulate: n1 must be odd";
  check_grid ~fn:"simulate" sys ~n1 init;
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
    Wampde.Envelope.march (semidisc sys ~n1)
      ~options:(Wampde.Envelope.default_options ~n1 ~solver ())
      ~t2_end ~h2 ~states:init ~omega:(1. /. sys.p1)
  in
  { t2 = res.Wampde.Envelope.t2; slices = res.Wampde.Envelope.slices; p1 = sys.p1 }

let quasiperiodic ?cascade sys ~n1 ~n2 ~p2 ~guess =
  if n1 mod 2 = 0 || n2 mod 2 = 0 then invalid_arg "Mpde.quasiperiodic: n1, n2 must be odd";
  if Array.length guess <> n2 then invalid_arg "Mpde.quasiperiodic: guess size <> n2";
  Array.iter (check_grid ~fn:"quasiperiodic" sys ~n1) guess;
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
  let sd = semidisc sys ~n1 in
  let qp = Dae.Semidisc.periodic sd ~p2 ~d2:(Fourier.Series.diff_matrix n2) in
  let jacobian y = Dae.Semidisc.periodic_dense qp (Dae.Semidisc.periodic_linearize qp y) in
  let outcome =
    Nonlin.Polyalg.solve
      ~options:{ newton_options with max_iterations = 80 }
      ?cascade ~label:"mpde.quasiperiodic" ~jacobian
      ~residual:(Dae.Semidisc.periodic_residual qp)
      (Array.concat (Array.to_list (Array.map pack guess)))
  in
  let report = outcome.Nonlin.Polyalg.report in
  if not report.Nonlin.Newton.converged then
    raise (Solve_failure { stage = "Mpde.quasiperiodic"; report });
  let block = Dae.Semidisc.size sd in
  {
    t2 = Vec.init n2 (fun m -> p2 *. float_of_int m /. float_of_int n2);
    slices =
      Array.init n2 (fun m -> Dae.Semidisc.unpack sd report.Nonlin.Newton.x ~off:(m * block));
    p1 = sys.p1;
  }

let eval_bivariate res ~component ~t1 ~t2 =
  let m = Array.length res.t2 in
  let idx =
    if t2 <= res.t2.(0) then 0
    else if t2 >= res.t2.(m - 1) then m - 2
    else begin
      let lo = ref 0 and hi = ref (m - 1) in
      while !hi - !lo > 1 do
        let mid = (!lo + !hi) / 2 in
        if res.t2.(mid) <= t2 then lo := mid else hi := mid
      done;
      !lo
    end
  in
  let slice_values i = Array.map (fun s -> s.(component)) res.slices.(i) in
  let wa = Fourier.Series.interp (slice_values idx) ~period:res.p1 t1 in
  let wb = Fourier.Series.interp (slice_values (idx + 1)) ~period:res.p1 t1 in
  let ta = res.t2.(idx) and tb = res.t2.(idx + 1) in
  let frac = if tb = ta then 0. else Float.max 0. (Float.min 1. ((t2 -. ta) /. (tb -. ta))) in
  wa +. (frac *. (wb -. wa))

let eval_waveform res ~component t =
  eval_bivariate res ~component ~t1:(Float.rem t res.p1) ~t2:t
