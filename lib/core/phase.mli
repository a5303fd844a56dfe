(** Phase conditions for the WaMPDE (paper eq. (20) and its time-domain
    equivalent).

    The WaMPDE is autonomous in the warped time [t1]: any [t1]-shift of
    a solution is again a solution.  A phase condition removes this
    freedom and simultaneously determines the local frequency
    [omega (t2)].  Both conditions provided here are {e linear} in the
    grid unknowns, contributing a constant row to the Newton system. *)

open Linalg

type t =
  | Derivative of int
      (** [Derivative comp]: the [t1]-derivative of state component
          [comp] vanishes at [t1 = 0] — the component's waveform peaks
          (or troughs) at the grid origin for every [t2]. *)
  | Fourier of { component : int; harmonic : int }
      (** [Fourier {component; harmonic}]: the imaginary part of the
          [harmonic]-th Fourier coefficient of the component's
          [t1]-variation is held at zero (eq. (20) with the paper's
          [k = component], [l = harmonic]). *)

(** [row condition ~n1 ~n ~d] is the length-[n1 * n] coefficient vector
    [c] such that the condition reads [dot c xflat = 0], where [xflat]
    stacks the [n]-dimensional state at the [n1] grid points
    point-major and [d] is the [t1] differentiation matrix in use.
    Raises [Invalid_argument] for out-of-range components or a
    harmonic index above the grid's Nyquist limit. *)
val row : t -> n1:int -> n:int -> d:Mat.t -> Vec.t
