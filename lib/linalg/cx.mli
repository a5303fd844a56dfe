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

(** [approx_equal ?tol a b] is closeness in modulus of the difference. *)
val approx_equal : ?tol:float -> c -> c -> bool

module Cvec : sig
  type t = c array

  val make : int -> c -> t
  val zeros : int -> t
  val init : int -> (int -> c) -> t
  val copy : t -> t

  (** [of_real v] embeds a real vector. *)
  val of_real : Vec.t -> t

  (** [real_part v] / [imag_part v] extract component vectors. *)
  val real_part : t -> Vec.t

  val imag_part : t -> Vec.t
  val add : t -> t -> t
  val sub : t -> t -> t
  val scale : c -> t -> t

  (** [dot u v] is the Hermitian inner product [sum conj(u_i) v_i]. *)
  val dot : t -> t -> c

  val norm2 : t -> float
  val norm_inf : t -> float
  val approx_equal : ?tol:float -> t -> t -> bool
end

module Cmat : sig
  type t = c array array

  val make : int -> int -> c -> t
  val zeros : int -> int -> t
  val init : int -> int -> (int -> int -> c) -> t
  val identity : int -> t
  val rows : t -> int
  val cols : t -> int
  val copy : t -> t
  val mul : t -> t -> t
  val matvec : t -> Cvec.t -> Cvec.t
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
      ([lu.factor_complex], [lu.dim_complex], the [Lu_factor] event)
      without performing it. *)
  val note_factor : n:int -> unit

  (** [solve_into lu ~b_re ~b_im ~x_re ~x_im] solves [A x = b] on split
      real/imaginary arrays, writing [x] and allocating nothing.  The
      arithmetic is that of {!solve} ([Complex.mul]/[sub]/[div] spelled
      out), so the two agree bitwise.  [x_re]/[x_im] must not alias
      [b_re]/[b_im]; raises [Invalid_argument] on a length mismatch. *)
  val solve_into : t -> b_re:Vec.t -> b_im:Vec.t -> x_re:Vec.t -> x_im:Vec.t -> unit

  (** Allocating wrapper over {!solve_into} for boxed vectors. *)
  val solve : t -> Cvec.t -> Cvec.t
  val solve_dense : Cmat.t -> Cvec.t -> Cvec.t
end
