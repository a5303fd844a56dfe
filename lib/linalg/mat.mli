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

(** [kron_eye_into d ~n ~lo ~hi src dst] writes rows [lo..hi-1] of
    [(d (x) I_n) src] into [dst]: for [lo <= j < hi] and [0 <= i < n],
    [dst.(j n + i) = sum_k d.(j).(k) src.(k n + i)] over the [rows d]
    points [k], for square [d].  Each sum runs over [k] in ascending
    order from [0.], so the result is bitwise the naive triple loop's;
    four outputs are accumulated side by side.  Entries of [dst]
    outside those rows are not touched.  Raises [Invalid_argument] on
    a non-square [d], [src] shorter than [rows d * n] or [dst] shorter
    than [hi * n]. *)
val kron_eye_into : t -> n:int -> lo:int -> hi:int -> Vec.t -> Vec.t -> unit

(** [matvec m v] is [m * v]. *)
val matvec : t -> Vec.t -> Vec.t

(** [tmatvec m v] is [transpose m * v] without forming the transpose. *)
val tmatvec : t -> Vec.t -> Vec.t

