open Linalg

let pack sd ~omega slices =
  Array.concat (Array.to_list (Array.mapi (fun m s -> Semidisc.pack sd s omega.(m)) slices))

let solve ?cascade sd ~p2 ~d2 ~options ~solver ~label ~fn ~omega slices =
  let n2 = Mat.rows d2 in
  if Array.length slices <> n2 || Array.length omega <> n2 then
    invalid_arg (Printf.sprintf "%s: expected %d slices and %d omegas" fn n2 n2);
  Array.iter (Semidisc.check_grid sd ~fn) slices;
  let sys = Semidisc.periodic sd ~p2 ~d2 in
  let bs = Semidisc.size sd in
  (* one stacked Jacobian and pivot vector for the whole solve: each
     Newton iteration or trust-region model refills the matrix, and the
     dense direction factors it in place (trust region copies it
     first, as its dogleg reads it unfactored).  Pivoting swaps the
     row arrays; a refill puts them back in allocation order, which
     factors about 5 % faster at 1,525 unknowns than rows left
     scattered in memory by the last pivoting *)
  let rows = lazy (Mat.zeros (n2 * bs) (n2 * bs)) and perm = lazy (Array.make (n2 * bs) 0) in
  let jac = lazy (Array.copy (Lazy.force rows)) in
  let jacobian y =
    let rows = Lazy.force rows and jac = Lazy.force jac in
    Array.blit rows 0 jac 0 (Array.length rows);
    Semidisc.periodic_dense_into sys (Semidisc.periodic_linearize sys y) jac;
    jac
  in
  let dense_dir y r = Lu.solve (Lu.factor_into (jacobian y) ~perm:(Lazy.force perm)) r in
  (* GMRES workspace and the preconditioner's buffers (its wavenumber
     blocks and Schur columns), shared by every Newton iteration of
     this solve *)
  let krylov_scratch = lazy (Gmres.workspace ~n:(n2 * bs) ~restart:60 ~max_iter:300 ()) in
  let coupling = lazy (Mat.init n2 n2 (fun m q -> d2.(m).(q) /. p2)) in
  let kept = Semidisc.precond () in
  (* Fully matrix-free Newton direction: the per-slice structured
     operators and cross-slice slow coupling of [Semidisc],
     preconditioned by their t1-averaged inverse, which holds the
     (D2/p2) (x) C coupling exactly: one n2 n complex block per t1
     wavenumber, bordered by the slices' omega columns and phase rows
     through one n2 x n2 Schur complement.  Returns [None] when the
     preconditioner degenerates or GMRES stalls. *)
  let krylov_dir y r =
    let lins = Semidisc.periodic_linearize sys y in
    match Semidisc.m_inv ~coupling:(Lazy.force coupling) kept lins with
    | exception (Cx.Clu.Singular _ | Structured.Bordered_singular _ | Failure _) -> None
    | m_inv ->
      let result =
        Gmres.solve
          ~matvec:(Semidisc.periodic_apply_into sys lins)
          ~m_inv ~ws:(Lazy.force krylov_scratch) ~restart:60 ~max_iter:300 ~tol:1e-10 r
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
      ~residual:(Semidisc.periodic_residual sys) (pack sd ~omega slices)
  in
  let y = outcome.Nonlin.Polyalg.report.Nonlin.Newton.x in
  if not outcome.Nonlin.Polyalg.report.Nonlin.Newton.converged then Error outcome
  else
    Ok
      ( Vec.init n2 (fun m -> Semidisc.omega_at sd y ~off:(m * bs)),
        Array.init n2 (fun m -> Semidisc.unpack sd y ~off:(m * bs)) )
