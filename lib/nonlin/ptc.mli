(** Pseudo-transient continuation (PTC) for square nonlinear systems.

    Solves [(delta^-1 I + J) dx = -r] per iteration and adapts the
    pseudo time step [delta] by switched evolution relaxation (SER):
    [delta] grows as the residual falls, so the iteration morphs from
    regularized descent into full Newton near the solution.  The
    strategy of last numerical resort before homotopy in {!Polyalg} —
    slow but very hard to stall.

    The Jacobian is formed once per iterate: when the shifted system
    is singular or the trial residual is not finite, the iterate stays
    put and only the shift and its LU are rebuilt. *)

open Linalg

(** [solve ?options ?label ?jacobian ~residual x0] reports like
    {!Newton.solve} with an iteration budget of
    [2 * options.max_iterations]; [options.min_damping] and
    [options.step_tol] are unused.  Emits [Newton_iter]/[Newton_done]
    tagged [label] and updates the [ptc.*] counters. *)
val solve :
  ?options:Newton.options ->
  ?label:string ->
  ?jacobian:(Vec.t -> Mat.t) ->
  residual:(Vec.t -> Vec.t) ->
  Vec.t ->
  Newton.report
