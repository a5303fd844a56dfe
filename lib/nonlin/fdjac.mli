(** Finite-difference Jacobians. *)

open Linalg

(** [jacobian ?parallel ?typical ?f0 f x] approximates the Jacobian of
    [f] at [x] by one-sided differences.  The step for column [j] is
    [sqrt eps * max |x_j| typical_j] with [typical] defaulting to 1,
    guarding against zero components.  Passing [?f0 = f x] (which most
    Newton-style callers already hold) saves one evaluation of [f].

    [?parallel:true] evaluates column chunks on the {!Par.Pool} domain
    pool (each worker gets its own perturbation scratch; columns write
    disjoint output slots, so the result is bitwise identical to the
    serial one for every job count).  Only opt in when [f] is
    re-entrant: pure, no shared mutable scratch, no
    {!Wampde_obs} telemetry. *)
val jacobian : ?parallel:bool -> ?typical:Vec.t -> ?f0:Vec.t -> (Vec.t -> Vec.t) -> Vec.t -> Mat.t

(** [jacobian_into ?parallel ?typical ?f0 f x jac] is {!jacobian}
    written into the caller's [m x n] matrix [jac] (every entry is
    written), bitwise the same.  Raises [Invalid_argument] when [jac]
    has another shape. *)
val jacobian_into :
  ?parallel:bool -> ?typical:Vec.t -> ?f0:Vec.t -> (Vec.t -> Vec.t) -> Vec.t -> Mat.t -> unit

(** [jacobian_central ?parallel ?typical f x] is the 2nd-order
    central-difference variant (twice the evaluations, more accurate).
    [?parallel] as in {!jacobian}. *)
val jacobian_central : ?parallel:bool -> ?typical:Vec.t -> (Vec.t -> Vec.t) -> Vec.t -> Mat.t

(** [directional ?f0 f x v] approximates the Jacobian–vector product
    [J(x) v] with a single extra evaluation of [f] when [?f0 = f x] is
    supplied (two otherwise). *)
val directional : ?f0:Vec.t -> (Vec.t -> Vec.t) -> Vec.t -> Vec.t -> Vec.t
