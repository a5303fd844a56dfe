(** Differential-algebraic systems in the charge/flux form of the
    paper's eq. (12):

    [d/dt q(x(t)) + f(t, x(t)) = 0]

    where the forcing [b(t)] of the paper is folded into [f] with a
    sign flip ([f_here (t, x) = f_paper (x) - b (t)]).  In the circuit
    context [x] collects node voltages and branch currents, [q] the
    charges and fluxes, and [f] the resistive terms.

    For the WaMPDE the time argument of [f] is the {e slow} (unwarped)
    time scale [t2]; systems intended for warped simulation must keep
    all fast dynamics autonomous inside [f]'s state dependence. *)

open Linalg

type t = {
  dim : int;  (** state dimension *)
  q : Vec.t -> Vec.t;  (** charge/flux function *)
  f : t:float -> Vec.t -> Vec.t;  (** resistive term including forcing *)
  dq : Vec.t -> Mat.t;  (** [C(x) = dq/dx] *)
  df : t:float -> Vec.t -> Mat.t;  (** [G(t, x) = df/dx] *)
  eval_into : t:float -> Vec.t -> q:Vec.t -> f:Vec.t -> c:Mat.t -> g:Mat.t -> unit;
      (** [eval_into ~t x ~q ~f ~c ~g] overwrites each requested buffer
          with [q(x)], [f(t, x)], [C(x)] and [G(t, x)] in one
          evaluation; an empty array ([[||]]) means that output is not
          wanted.  The one evaluator every solver calls: each call
          bumps the [dae.evals] counter (calls of the four closures
          above are not counted).  [q] and [C] read no time, so they
          do not depend on [t]. *)
  var_names : string array;  (** length [dim], for reporting *)
}

(** [make ~dim ~q ~f ()] builds a system; omitted Jacobians fall back
    to forward finite differences of [q] and [f].  [eval_into], if
    given, is the system's one-pass evaluator and must agree with the
    four closures; otherwise the evaluator calls the requested closures
    and copies their results.  Either way it is counted.  [var_names]
    defaults to [x0, x1, ...].  Raises [Invalid_argument] if supplied
    [var_names] has the wrong length. *)
val make :
  dim:int ->
  q:(Vec.t -> Vec.t) ->
  f:(t:float -> Vec.t -> Vec.t) ->
  ?dq:(Vec.t -> Mat.t) ->
  ?df:(t:float -> Vec.t -> Mat.t) ->
  ?eval_into:(t:float -> Vec.t -> q:Vec.t -> f:Vec.t -> c:Mat.t -> g:Mat.t -> unit) ->
  ?var_names:string array ->
  unit ->
  t

(** [of_ode ~dim ~rhs ()] wraps an explicit ODE [x' = rhs t x] as a DAE
    with [q = identity], [f = -rhs].  [drhs], if given, is the ODE
    Jacobian.  Its [eval_into] writes [x] and [-rhs] straight into the
    buffers. *)
val of_ode :
  dim:int ->
  rhs:(t:float -> Vec.t -> Vec.t) ->
  ?drhs:(t:float -> Vec.t -> Mat.t) ->
  ?var_names:string array ->
  unit ->
  t

(** [consistent_derivative dae ~t x] solves [C(x) xdot = -f(t, x)] for
    the state derivative at a consistent point.  Raises [Failure] when
    [C(x)] is singular (a genuinely algebraic constraint); use an
    implicit integrator in that case. *)
val consistent_derivative : t -> t:float -> Vec.t -> Vec.t

(** [dc_operating_point ?x0 dae] solves [f(t0, x) = 0] (with
    [t0 = 0.]): the DC equilibrium with all dynamic elements frozen. *)
val dc_operating_point : ?x0:Vec.t -> t -> Nonlin.Newton.report
