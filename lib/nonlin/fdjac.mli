(** Finite-difference Jacobians. *)

open Linalg

(** [jacobian ?f0 f x] approximates the Jacobian of [f] at [x] by
    one-sided differences, one column at a time.  The step for column
    [j] is [sqrt eps * max |x_j| 1], guarding against zero components.
    Passing [?f0 = f x] (which most Newton-style callers already hold)
    saves one evaluation of [f]. *)
val jacobian : ?f0:Vec.t -> (Vec.t -> Vec.t) -> Vec.t -> Mat.t

(** [jacobian_into ?f0 f x jac] is {!jacobian} written into the
    caller's [m x n] matrix [jac] (every entry is written), bitwise the
    same.  Raises [Invalid_argument] when [jac] has another shape. *)
val jacobian_into : ?f0:Vec.t -> (Vec.t -> Vec.t) -> Vec.t -> Mat.t -> unit

(** [jacobian_central f x] is the 2nd-order central-difference variant
    (twice the evaluations, more accurate). *)
val jacobian_central : (Vec.t -> Vec.t) -> Vec.t -> Mat.t

(** [directional ?f0 f x v] approximates the Jacobian–vector product
    [J(x) v] with a single extra evaluation of [f] when [?f0 = f x] is
    supplied (two otherwise). *)
val directional : ?f0:Vec.t -> (Vec.t -> Vec.t) -> Vec.t -> Vec.t -> Vec.t
