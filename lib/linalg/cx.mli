(** Complex scalars, vectors and dense matrices, plus a complex LU solve.

    Builds on [Stdlib.Complex].  Used by the harmonic-balance and
    Fourier machinery; the heavy WaMPDE collocation path is real-valued
    and uses {!Lu} instead. *)

type c = Complex.t

(** [cx re im] builds a complex number. *)
val cx : float -> float -> c

(** [re x] / [im x] are the real / imaginary parts. *)
val re : c -> float

val im : c -> float

(** [polar r theta] is [r e^{i theta}]. *)
val polar : float -> float -> c

(** [cis theta] is [e^{i theta}]. *)
val cis : float -> c

(** [scale a z] multiplies by a real scalar. *)
val scale : float -> c -> c

module Cvec : sig
  type t = c array

  val zeros : int -> t
  val init : int -> (int -> c) -> t

  (** [of_real v] embeds a real vector. *)
  val of_real : Vec.t -> t

  val norm_inf : t -> float
end

module Cmat : sig
  type t = c array array

  val zeros : int -> int -> t
  val init : int -> int -> (int -> int -> c) -> t
end

module Clu : sig
  type t

  exception Singular of int

  (** [factor a] is complex LU with partial (modulus) pivoting. *)
  val factor : Cmat.t -> t

  (** Telemetry-free {!factor} for pool worker domains (the metric
      cells in {!Wampde_obs} are not synchronized across domains).
      Callers account the work on the calling domain via
      {!note_factor}, keeping counts identical for every job count. *)
  val factor_quiet : Cmat.t -> t

  (** Record the telemetry of one [n x n] factorization
      ([lu.factor_complex], [lu.dim_complex]) without performing it. *)
  val note_factor : n:int -> unit

  (** [solve_into lu ~b_re ~b_im ~x_re ~x_im] solves [A x = b] on split
      real/imaginary arrays, writing [x] and allocating nothing.  The
      arithmetic is that of {!solve} ([Complex.mul]/[sub]/[div] spelled
      out), so the two agree bitwise.  [x_re]/[x_im] must not alias
      [b_re]/[b_im]; raises [Invalid_argument] on a length mismatch. *)
  val solve_into : t -> b_re:Vec.t -> b_im:Vec.t -> x_re:Vec.t -> x_im:Vec.t -> unit

  (** Allocating wrapper over {!solve_into} for boxed vectors. *)
  val solve : t -> Cvec.t -> Cvec.t
end
