(** Trust-region Newton (dogleg) for square nonlinear systems.

    Globalizes Newton on the merit function [0.5 ||r(x)||^2] with a
    dogleg step interpolating the Cauchy (steepest-descent) and Newton
    points inside an adaptive radius.  More robust than a line search
    when the Newton direction is poor far from the solution; used by
    {!Polyalg} as the one escalation past damped Newton.

    The Jacobian is formed densely ([?jacobian] or forward differences)
    and factored with LU — a singular factorization degrades to the
    Cauchy direction instead of aborting.  Both happen once per
    accepted iterate: a rejected step leaves the iterate in place, so
    the model is kept and only the dogleg is redone for the smaller
    radius (iterates are the same as rebuilding it). *)

open Linalg

(** [solve ?options ?label ?jacobian ~residual x0] reports like
    {!Newton.solve}; [options.min_damping] and [options.step_tol] are
    unused.  Failure reasons: [Line_search_failed] encodes trust-radius
    collapse, [Non_finite_residual] a NaN/Inf residual at the current
    iterate.  Emits one [Newton_done] tagged [label] and
    updates the [trust_region.*] counters ([trust_region.rejected]
    counts rejected dogleg steps). *)
val solve :
  ?options:Newton.options ->
  ?label:string ->
  ?jacobian:(Vec.t -> Mat.t) ->
  residual:(Vec.t -> Vec.t) ->
  Vec.t ->
  Newton.report
