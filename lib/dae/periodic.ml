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
  let jacobian y = Semidisc.periodic_dense sys (Semidisc.periodic_linearize sys y) in
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
     operators and cross-slice slow coupling of [Semidisc],
     preconditioned by the per-slice DFT-block inverse (the slow d2/p2
     coupling is weak against the omega-scaled fast term and is left to
     GMRES).  Returns [None] when the preconditioner degenerates or
     GMRES stalls. *)
  let krylov_dir y r =
    let lins = Semidisc.periodic_linearize sys y in
    match
      Array.map (fun lin -> Semidisc.m_inv lin (Structured.make_precond lin.Semidisc.op)) lins
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
          ~matvec:(Semidisc.periodic_apply_into sys lins)
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
      ~residual:(Semidisc.periodic_residual sys) (pack sd ~omega slices)
  in
  let y = outcome.Nonlin.Polyalg.report.Nonlin.Newton.x in
  if not outcome.Nonlin.Polyalg.report.Nonlin.Newton.converged then Error outcome
  else
    Ok
      ( Vec.init n2 (fun m -> Semidisc.omega_at sd y ~off:(m * bs)),
        Array.init n2 (fun m -> Semidisc.unpack sd y ~off:(m * bs)) )
