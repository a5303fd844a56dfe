(** Dense real matrices in row-major [float array array] form.

    A matrix of [rows r] and [cols c] is an array of [r] rows, each a
    [float array] of length [c].  Rows are never shared between
    matrices created by this module. *)

type t = float array array

(** [zeros r c] is the [r x c] zero matrix. *)
val zeros : int -> int -> t

(** [init r c f] has entry [(i, j)] equal to [f i j]. *)
val init : int -> int -> (int -> int -> float) -> t

(** [identity n] is the [n x n] identity. *)
val identity : int -> t

(** [rows m] is the number of rows. *)
val rows : t -> int

(** [cols m] is the number of columns (0 if there are no rows). *)
val cols : t -> int

(** [copy m] is a deep copy. *)
val copy : t -> t

(** [scale a m] multiplies every entry by [a]. *)
val scale : float -> t -> t

(** [mul a b] is the matrix product. *)
val mul : t -> t -> t

(** [matvec m v] is [m * v]. *)
val matvec : t -> Vec.t -> Vec.t

(** [tmatvec m v] is [transpose m * v] without forming the transpose. *)
val tmatvec : t -> Vec.t -> Vec.t

