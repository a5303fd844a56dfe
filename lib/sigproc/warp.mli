(** Time warping: the map [phi (t) = integral_0^t omega (s) ds] of the
    paper's eq. (17), built from sampled local-frequency output of the
    WaMPDE (or any positive rate function).

    [omega] is in cycles per time unit, so [phi] advances by 1 per
    oscillation cycle; the warped fast time [t1 = phi (t)] is used
    modulo 1 when evaluating period-1 bivariate forms. *)

open Linalg

type t

(** [of_samples ~times ~omega] builds the warping from samples of the
    local frequency.  [omega] must be strictly positive.  Raises
    [Invalid_argument] on non-positive samples or length mismatch. *)
val of_samples : times:Vec.t -> omega:Vec.t -> t

(** [phi w t] is the accumulated warped time (cycles since [t0]). *)
val phi : t -> float -> float

(** [total_cycles w] is [phi] at the end of the sampled span. *)
val total_cycles : t -> float
