(** Bivariate (two-time) representations of multirate signals — the
    machinery behind the paper's Figures 1–6.

    A bivariate form [yhat (t1, t2)] is stored as samples on a uniform
    [n1 x n2] grid over one period rectangle [\[0, p1) x \[0, p2)];
    both axes are treated as periodic. *)

open Linalg

type t = {
  p1 : float;  (** period along the fast axis *)
  p2 : float;  (** period along the slow axis *)
  grid : Mat.t;  (** [grid.(i).(j)] is [yhat (i p1 / n1, j p2 / n2)] *)
}

(** [sample ~f ~p1 ~p2 ~n1 ~n2] samples a function of two times on the
    period rectangle. *)
val sample : f:(float -> float -> float) -> p1:float -> p2:float -> n1:int -> n2:int -> t

(** [diagonal b t] is the paper's eq.-recovery [y (t) = yhat (t, t)]
    along the sawtooth path [ti = t mod pi] (Fig. 3). *)
val diagonal : t -> float -> float

(** [warped_diagonal b ~phi t] evaluates [yhat (phi t, t)] — the bent
    path of eq. (17); [phi t] is interpreted modulo [p1]. *)
val warped_diagonal : t -> phi:(float -> float) -> float -> float

(** [sawtooth_path ~p1 ~p2 ~t_max n] returns [n] points
    [(t mod p1, t mod p2)] along the characteristic path of Fig. 3. *)
val sawtooth_path : p1:float -> p2:float -> t_max:float -> int -> (float * float) array

(** [sample_count b] is [n1 * n2], the storage cost of the bivariate
    representation (compare with the univariate sample count in
    Figs. 1–2). *)
val sample_count : t -> int

(** [undulation_count b] counts sign changes of the slow-axis
    derivative along [t2] summed over rows: a cheap surrogate for "how
    many undulations" the surface has (large for the unwarped FM form
    of Fig. 5, small for the warped form of Fig. 6). *)
val undulation_count : t -> int
