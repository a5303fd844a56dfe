(** The recovery of the paper's eq. (17), [x(t) = xhat(phi(t), t)],
    as one value built once per answer.

    An answer is slices [slices.(m).(j)], the state at [(t1_j, t2_m)]
    with [t1_j = j / n1] ([n1] odd), and the local frequency
    [omega.(m)] in cycles per time unit.  [omega] is linear between
    slices and [phi(t) = integral_0^t omega] is its exact integral: a
    quadratic in each step, the trapezoidal sum at the slices, so
    [phi] is continuous and [dphi/dt = omega].  A point costs O(n1):
    the two bracketing slices' trigonometric interpolants at
    [phi(t) mod 1], blended linearly in [t2] (second order in the
    slice spacing).  Each slice's Fourier coefficients are computed
    the first time it is read; filling is idempotent, so a value may
    be read from several domains.

    With [p2] the answer is periodic in [t2]: slice 0 closes the period
    at [t2 = p2], so [phi(t) = k phi(p2) + phi(t - k p2)] for every
    [t].  Without it, [phi] continues past the end slices at their
    [omega] and [xhat] holds the end slice.  The value shares the
    caller's arrays. *)

open Linalg

type t

(** [make ~t2 ~omega ~slices ?p2 ()] builds the recovery.  Raises
    [Invalid_argument] when the lengths differ, [t2] does not increase
    strictly, an [omega] is not positive (NaN included), [n1] is even
    or differs between slices, fewer than 2 slices are given without
    [p2], or with [p2] [t2] does not start at 0 and end before [p2]. *)
val make : t2:Vec.t -> omega:Vec.t -> slices:Vec.t array array -> ?p2:float -> unit -> t

(** [phi w t] is the accumulated warped time (cycles since [t = 0]). *)
val phi : t -> float -> float

(** [eval w ~component t] is [x(t) = xhat(phi(t) mod 1, t)].  Raises
    [Invalid_argument] on a component outside the state. *)
val eval : t -> component:int -> float -> float

(** [xhat w ~component ~t1 t2] is the bivariate form {!eval} reads, at
    fast time [t1] in cycles (period 1). *)
val xhat : t -> component:int -> t1:float -> float -> float
