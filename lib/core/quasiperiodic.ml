open Linalg
module Obs = Wampde_obs

type solution = { p2 : float; t2 : Vec.t; omega : Vec.t; slices : Vec.t array array }

exception Solve_failure of Nonlin.Newton.report

let () =
  Printexc.register_printer (function
    | Solve_failure report ->
      Some
        (Printf.sprintf
           "Wampde.Quasiperiodic.Solve_failure: Newton did not converge (residual %.3e after %d \
            iterations)"
           report.Nonlin.Newton.residual_norm report.Nonlin.Newton.iterations)
    | _ -> None)

let slice_times ~p2 ~n2 = Vec.init n2 (fun m -> p2 *. float_of_int m /. float_of_int n2)

(* The periodic-in-t2 system on [sd]'s t1 discretization: n2 slices of
   [Dae.Semidisc.size sd] unknowns, slice m at t2_m = m p2 / n2. *)
let system sd ~p2 ~n2 = Dae.Semidisc.periodic sd ~p2 ~d2:(Fourier.Series.diff_matrix n2)

let pack sd ~omega slices =
  Array.concat (Array.to_list (Array.mapi (fun m s -> Dae.Semidisc.pack sd s omega.(m)) slices))

(* worst-case t1 resolution over the slow slices *)
let note_spectrum slices =
  let tol = (Obs.Health.thresholds ()).Obs.Health.spectral_tol in
  let rs = Array.map (Fourier.Series.grid_resolution ~tol) slices in
  let worst f = Array.fold_left (fun acc r -> max acc (f r)) (f rs.(0)) rs in
  Obs.Health.note_spectrum
    ~tail:(worst (fun r -> r.Fourier.Series.tail))
    ~needed:(worst (fun r -> r.Fourier.Series.needed))
    ~available:rs.(0).Fourier.Series.available ()

let solve_semidisc ?cascade sd ~p2 ~n2 ~options ~solver ~label ~fn ~omega slices =
  if Array.length slices <> n2 || Array.length omega <> n2 then
    invalid_arg (Printf.sprintf "%s: expected %d slices and %d omegas" fn n2 n2);
  Array.iter (Dae.Semidisc.check_grid sd ~fn) slices;
  let sys = system sd ~p2 ~n2 in
  let bs = Dae.Semidisc.size sd in
  let jacobian y = Dae.Semidisc.periodic_dense sys (Dae.Semidisc.periodic_linearize sys y) in
  let dense_dir y r =
    let jac = jacobian y in
    Lu.solve (Lu.factor_into jac ~perm:(Array.make (Mat.rows jac) 0)) r
  in
  (* GMRES workspace and one-slice preconditioner scratch, shared by
     every Newton iteration of this solve *)
  let krylov_scratch =
    lazy
      (Gmres.workspace ~n:(n2 * bs) ~restart:60 ~max_iter:300 (), Array.make bs 0., Array.make bs 0.)
  in
  (* Fully matrix-free Newton direction: the per-slice structured
     operators and cross-slice slow coupling of [Dae.Semidisc],
     preconditioned by the per-slice DFT-block inverse (the slow d2/p2
     coupling is weak against the omega-scaled fast term and is left to
     GMRES).  Returns [None] when the preconditioner degenerates or
     GMRES stalls. *)
  let krylov_dir y r =
    let lins = Dae.Semidisc.periodic_linearize sys y in
    match
      Array.map
        (fun lin -> Dae.Semidisc.m_inv lin (Structured.make_precond lin.Dae.Semidisc.op))
        lins
    with
    | exception (Cx.Clu.Singular _ | Structured.Bordered_singular _ | Failure _) -> None
    | slice_m_inv ->
      let ws, seg_in, seg_out = Lazy.force krylov_scratch in
      let m_inv v out =
        for m = 0 to n2 - 1 do
          Array.blit v (m * bs) seg_in 0 bs;
          slice_m_inv.(m) seg_in seg_out;
          Array.blit seg_out 0 out (m * bs) bs
        done
      in
      let result =
        Gmres.solve
          ~matvec:(Dae.Semidisc.periodic_apply_into sys lins)
          ~m_inv ~ws ~restart:60 ~max_iter:300 ~tol:1e-10 r
      in
      if result.Gmres.converged then Some result.Gmres.x else None
  in
  let linear_solve =
    if Structured.use_krylov solver ~dim:(n2 * bs) then fun y r ->
      match krylov_dir y r with
      | Some dy -> dy
      | None ->
        Structured.fallback_to_dense ();
        dense_dir y r
    else dense_dir
  in
  let outcome =
    Nonlin.Polyalg.solve ~options ~label ?cascade ~jacobian ~linear_solve
      ~residual:(Dae.Semidisc.periodic_residual sys) (pack sd ~omega slices)
  in
  let report = outcome.Nonlin.Polyalg.report in
  if not report.Nonlin.Newton.converged then Error report
  else begin
    let y = report.Nonlin.Newton.x in
    let sol =
      {
        p2;
        t2 = slice_times ~p2 ~n2;
        omega = Vec.init n2 (fun m -> Dae.Semidisc.omega_at sd y ~off:(m * bs));
        slices = Array.init n2 (fun m -> Dae.Semidisc.unpack sd y ~off:(m * bs));
      }
    in
    if Obs.enabled () then note_spectrum sol.slices;
    Ok sol
  end

let solve dae ?(max_iterations = 25) ?(tol = 1e-8) ~(options : Envelope.options) ~p2 ~n2
    ~guess () =
  let n1 = options.Envelope.n1 in
  if n1 mod 2 = 0 || n2 mod 2 = 0 then
    invalid_arg "Quasiperiodic.solve: n1 and n2 must be odd";
  Obs.Span.span
    ~attrs:
      [ ("n1", Obs.Span.Int n1); ("n2", Obs.Span.Int n2); ("dim", Obs.Span.Int dae.Dae.dim) ]
    "quasiperiodic.solve"
  @@ fun () ->
  Obs.Scope.with_scope "quasiperiodic" @@ fun () ->
  let newton =
    { Nonlin.Newton.default_options with max_iterations; residual_tol = tol; min_damping = 1e-3;
      step_tol = 0. }
  in
  match
    solve_semidisc (Envelope.semidisc dae options) ~p2 ~n2 ~options:newton
      ~solver:options.Envelope.solver ~label:"quasiperiodic" ~fn:"Quasiperiodic.solve"
      ~omega:guess.omega guess.slices
  with
  | Ok sol -> sol
  | Error report -> raise (Solve_failure report)

let guess_from_envelope (result : Envelope.result) ~p2 ~n2 ~t_from =
  (* the accepted envelope step nearest to each slice time *)
  let nearest t =
    let t2 = result.Envelope.t2 in
    let best = ref 0 in
    Array.iteri (fun i ti -> if Float.abs (ti -. t) < Float.abs (t2.(!best) -. t) then best := i)
      t2;
    !best
  in
  let idx = Array.map (fun t -> nearest (t_from +. t)) (slice_times ~p2 ~n2) in
  {
    p2;
    t2 = slice_times ~p2 ~n2;
    omega = Array.map (fun i -> result.Envelope.omega.(i)) idx;
    slices = Array.map (fun i -> Array.map Array.copy result.Envelope.slices.(i)) idx;
  }

let residual_norm dae ~(options : Envelope.options) sol =
  let sd = Envelope.semidisc dae options in
  let sys = system sd ~p2:sol.p2 ~n2:(Array.length sol.slices) in
  let res = Dae.Semidisc.periodic_residual sys (pack sd ~omega:sol.omega sol.slices) in
  let bs = Dae.Semidisc.size sd in
  let worst = ref 0. in
  Array.iteri
    (fun idx v -> if idx mod bs <> bs - 1 then worst := Float.max !worst (Float.abs v))
    res;
  !worst

let mean_frequency sol = Vec.mean sol.omega

let eval_waveform sol ~component ~t_max t =
  (* build a warping over [0, t_max] from the periodic omega *)
  let n_samples = Int.max 64 (int_of_float (Float.ceil (t_max /. sol.p2 *. 64.))) in
  let times = Vec.linspace 0. t_max n_samples in
  (* trig interpolation of the periodic omega samples *)
  let omega_interp tt = Fourier.Series.interp sol.omega ~period:sol.p2 tt in
  let w = Sigproc.Warp.of_samples ~times ~omega:(Vec.map omega_interp times) in
  let tau1 = Float.rem (Sigproc.Warp.phi w t) 1. in
  Envelope.eval_slices ~t2s:sol.t2 ~slices:sol.slices ~p2:sol.p2 ~period:1. ~component ~t1:tau1 t
