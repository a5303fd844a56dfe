(** Dense real vectors represented as [float array].

    All functions are total on well-formed inputs; dimension mismatches
    raise [Invalid_argument].  Vectors are mutable; functions suffixed
    [_into] write their result into a caller-supplied destination, the
    others allocate. *)

type t = float array

(** [init n f] is the vector whose [i]th entry is [f i]. *)
val init : int -> (int -> float) -> t

(** [linspace a b n] is [n >= 2] equally spaced points from [a] to [b]
    inclusive. *)
val linspace : float -> float -> int -> t

(** [sub u v] is the elementwise difference [u - v]. *)
val sub : t -> t -> t

(** [scale a v] is [a * v]. *)
val scale : float -> t -> t

(** [scale_inplace a v] multiplies [v] by [a] in place. *)
val scale_inplace : float -> t -> unit

(** [axpy ~a ~x y] adds [a * x] to [y] in place (BLAS axpy). *)
val axpy : a:float -> x:t -> t -> unit

(** [dot u v] is the inner product, computed with compensated summation. *)
val dot : t -> t -> float

(** [norm2 v] is the Euclidean norm. *)
val norm2 : t -> float

(** [norm_inf v] is the maximum absolute entry (0 for the empty vector). *)
val norm_inf : t -> float

(** [map f v] applies [f] elementwise. *)
val map : (float -> float) -> t -> t

(** [map2 f u v] applies [f] to corresponding elements. *)
val map2 : (float -> float -> float) -> t -> t -> t

(** [mean v] is the arithmetic mean ([nan] for the empty vector). *)
val mean : t -> float

(** [weighted_norm ~scale v] is [norm_inf (v ./ scale)]: each entry is
    divided by the matching positive scale before taking the max. *)
val weighted_norm : scale:t -> t -> float
