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

(* The periodic-in-t2 system on the envelope's t1 discretization.
   Unknown layout: for slice m in 0..n2-1, block of size (n1 * n + 1):
   y.((m * bs) + (j * n) + i) = component i at (t1_j, t2_m);
   y.((m * bs) + n1 * n) = omega at t2_m. *)
let system dae ~options ~p2 ~n2 =
  Dae.Semidisc.periodic (Envelope.semidisc dae options) ~p2 ~d2:(Fourier.Series.diff_matrix n2)

let pack sol =
  let n2 = Array.length sol.slices in
  let n1 = Array.length sol.slices.(0) in
  let n = Array.length sol.slices.(0).(0) in
  let bs = (n1 * n) + 1 in
  Vec.init (n2 * bs) (fun idx ->
      let m = idx / bs and r = idx mod bs in
      if r = n1 * n then sol.omega.(m) else sol.slices.(m).(r / n).(r mod n))

let slice_times ~p2 ~n2 = Vec.init n2 (fun m -> p2 *. float_of_int m /. float_of_int n2)

let unpack ~p2 ~n1 ~n ~n2 y =
  let bs = (n1 * n) + 1 in
  {
    p2;
    t2 = slice_times ~p2 ~n2;
    omega = Vec.init n2 (fun m -> y.((m * bs) + (n1 * n)));
    slices =
      Array.init n2 (fun m -> Array.init n1 (fun j -> Array.sub y ((m * bs) + (j * n)) n));
  }

let solve dae ?(max_iterations = 25) ?(tol = 1e-8) ~(options : Envelope.options) ~p2 ~n2
    ~guess () =
  let n = dae.Dae.dim in
  let n1 = options.Envelope.n1 in
  if n1 mod 2 = 0 || n2 mod 2 = 0 then
    invalid_arg "Quasiperiodic.solve: n1 and n2 must be odd";
  if Array.length guess.slices <> n2 || Array.length guess.slices.(0) <> n1 then
    invalid_arg "Quasiperiodic.solve: guess grid mismatch";
  Obs.Span.span
    ~attrs:[ ("n1", Obs.Span.Int n1); ("n2", Obs.Span.Int n2); ("dim", Obs.Span.Int n) ]
    "quasiperiodic.solve"
  @@ fun () ->
  Obs.Scope.with_scope "quasiperiodic" @@ fun () ->
  let sys = system dae ~options ~p2 ~n2 in
  let bs = (n1 * n) + 1 in
  let dense_dir y r =
    let jac = Dae.Semidisc.periodic_dense sys (Dae.Semidisc.periodic_linearize sys y) in
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
     preconditioned by the per-slice bordered DFT-block inverse (the
     slow d2/p2 coupling is weak against the omega-scaled fast term and
     is left to GMRES).  Returns [None] when the preconditioner
     degenerates or GMRES stalls. *)
  let krylov_dir y r =
    let lins = Dae.Semidisc.periodic_linearize sys y in
    match
      Array.map
        (fun lin ->
          let pc = Structured.make_precond lin.Dae.Semidisc.op in
          let { Dae.Semidisc.col = border_col; row = border_row } =
            Option.get lin.Dae.Semidisc.border
          in
          try Structured.make_bordered pc ~border_col ~border_row
          with Structured.Bordered_singular _ ->
            Structured.make_bordered ~gmin:1e-9 pc ~border_col ~border_row)
        lins
    with
    | exception (Cx.Clu.Singular _ | Structured.Bordered_singular _ | Failure _) -> None
    | borders ->
      let ws, seg_in, seg_out = Lazy.force krylov_scratch in
      let m_inv v out =
        for m = 0 to n2 - 1 do
          Array.blit v (m * bs) seg_in 0 bs;
          Structured.bordered_apply_into borders.(m) seg_in seg_out;
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
    if Structured.use_krylov options.Envelope.solver ~dim:(n2 * bs) then fun y r ->
      match krylov_dir y r with
      | Some dy -> dy
      | None ->
        Structured.fallback_to_dense ();
        dense_dir y r
    else dense_dir
  in
  let report =
    Nonlin.Newton.solve_with
      ~options:
        {
          Nonlin.Newton.default_options with
          max_iterations;
          residual_tol = tol;
          min_damping = 1e-3;
          step_tol = 0.;
        }
      ~label:"quasiperiodic" ~linear_solve
      ~residual:(Dae.Semidisc.periodic_residual sys)
      (pack guess)
  in
  if not report.Nonlin.Newton.converged then raise (Solve_failure report);
  let sol = unpack ~p2 ~n1 ~n ~n2 report.Nonlin.Newton.x in
  (if Obs.enabled () then begin
     (* worst-case t1 resolution over the n2 slow slices *)
     let stol = (Obs.Health.thresholds ()).Obs.Health.spectral_tol in
     let needed = ref 0 and tail = ref 0. and avail = ref (n1 / 2) in
     Array.iter
       (fun slice ->
         let rr = Fourier.Series.grid_resolution ~tol:stol slice in
         if rr.Fourier.Series.needed > !needed then needed := rr.Fourier.Series.needed;
         if rr.Fourier.Series.tail > !tail then tail := rr.Fourier.Series.tail;
         avail := rr.Fourier.Series.available)
       sol.slices;
     Obs.Health.note_spectrum ~tail:!tail ~needed:!needed ~available:!avail ()
   end);
  sol

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
  let n = dae.Dae.dim in
  let n2 = Array.length sol.slices in
  let sys = system dae ~options ~p2:sol.p2 ~n2 in
  let res = Dae.Semidisc.periodic_residual sys (pack sol) in
  let bs = (options.Envelope.n1 * n) + 1 in
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
  let omega_interp tt =
    let tau = Float.rem tt sol.p2 in
    let tau = if tau < 0. then tau +. sol.p2 else tau in
    (* trig interpolation of the periodic omega samples *)
    Fourier.Series.interp sol.omega ~period:sol.p2 tau
  in
  let w = Sigproc.Warp.of_samples ~times ~omega:(Vec.map omega_interp times) in
  let tau1 = Float.rem (Sigproc.Warp.phi w t) 1. in
  let t2 = Float.rem t sol.p2 in
  (* bilinear in t2 between slices, trig in t1 *)
  let n2 = Array.length sol.slices in
  let ft = t2 /. sol.p2 *. float_of_int n2 in
  let m0 = int_of_float ft mod n2 in
  let m1 = (m0 + 1) mod n2 in
  let frac = ft -. Float.of_int (int_of_float ft) in
  let value m =
    let samples = Array.map (fun s -> s.(component)) sol.slices.(m) in
    Fourier.Series.interp samples ~period:1. tau1
  in
  ((1. -. frac) *. value m0) +. (frac *. value m1)
