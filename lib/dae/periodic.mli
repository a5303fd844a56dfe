(** The one Newton driver for the periodic-in-[t2] system of
    {!Semidisc} (paper eqs. (16)+(20) with periodic [t2] boundary
    conditions).  Its callers are the quasiperiodic WaMPDE ([n2] slices,
    [omega] unknown), the MPDE's periodic solves ([omega] fixed; the
    frozen-[t2] initial condition is [n2 = 1]) and the unforced orbit
    ([n2 = 1], [omega] unknown: no [t2] dependence at all). *)

open Linalg

(** [pack sd ~omega slices] stacks the slices' unknowns, slice [m]
    with [omega.(m)], as the periodic system lays them out. *)
val pack : Semidisc.t -> omega:Vec.t -> Vec.t array array -> Vec.t

(** [solve sd ~p2 ~d2 ~options ~solver ~label ~fn ~omega slices] solves
    {!Semidisc.periodic} on [sd] with [n2 = rows d2] slices from [n2]
    grids and [n2] omegas (unused when [sd] fixes omega); any other
    shape raises [Invalid_argument] naming [fn].  It runs the
    {!Nonlin.Polyalg} cascade under [label].  Its dense Jacobian is one
    stacked matrix kept for the solve: each Newton iteration and each
    trust-region model refills it ({!Semidisc.periodic_dense_into}),
    and the damped stage factors it in place.  The damped stage's
    direction is that dense LU or, by {!Linalg.Structured.use_krylov} on
    [solver], GMRES (relative tolerance 1e-10) preconditioned by
    {!Linalg.Structured.make_precond} over all [n2] slices with the
    [(d2 / p2) (x) C] coupling, bordered by their omega columns and
    phase rows when omega is unknown: one build per Newton iteration,
    into buffers kept for the solve.  A singular preconditioner or a
    GMRES solve that does not converge in 300 iterations falls back to
    dense LU for that iteration.  [Ok (omega, slices)] holds the
    converged frequency and grid of each slice; [Error] the exhausted
    cascade's outcome. *)
val solve :
  ?cascade:Nonlin.Polyalg.strategy list ->
  Semidisc.t ->
  p2:float ->
  d2:Mat.t ->
  options:Nonlin.Newton.options ->
  solver:Structured.strategy ->
  label:string ->
  fn:string ->
  omega:Vec.t ->
  Vec.t array array ->
  (Vec.t * Vec.t array array, Nonlin.Polyalg.outcome) result
