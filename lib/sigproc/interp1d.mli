(** Piecewise interpolation of sampled functions of one variable. *)

open Linalg

type t
(** A sampled function with strictly increasing abscissae. *)

(** [create times values] builds an interpolant.  Raises
    [Invalid_argument] if lengths differ, fewer than 2 points are
    given, or [times] is not strictly increasing. *)
val create : Vec.t -> Vec.t -> t

(** [eval f t] evaluates by linear interpolation, clamping outside the
    sampled span. *)
val eval : t -> float -> float

(** [span f] is the sampled time span [(t_first, t_last)]. *)
val span : t -> float * float

(** [cumulative_integral times values] returns the running trapezoidal
    integral of the samples, same length as the inputs, starting at 0. *)
val cumulative_integral : Vec.t -> Vec.t -> Vec.t
