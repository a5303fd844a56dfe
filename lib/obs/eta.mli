(** Exponentially-smoothed progress-rate / ETA estimator.

    Feed it [(now, completed)] observations; it maintains a smoothed
    rate (units of progress per second) and derives the remaining time.
    The internal sample point only advances when progress is actually
    made, so stalls lengthen the next rate sample rather than being
    dropped — the estimate degrades pessimistically under stalls,
    never optimistically.

    Guarantee (tested): for any monotone sequence of updates with at
    least one strictly positive [(dt, dc)] pair, {!eta_s} is finite and
    non-negative. *)

type t

(** [create ~total ()] starts an estimator toward [total] units of
    progress.  [alpha] in (0, 1] is the EWMA weight of the newest
    rate sample (default 0.3).  Raises [Invalid_argument] unless
    [total] is finite and positive. *)
val create : ?alpha:float -> total:float -> unit -> t

(** [update e ~now ~completed] records that [completed] units were
    done as of wall-clock [now].  [completed] is clamped to be
    non-decreasing and at most [total]. *)
val update : t -> now:float -> completed:float -> unit

(** Smoothed progress rate per second; 0 until two distinct
    observations with positive progress have been seen. *)
val rate : t -> float

(** Fraction complete in [0, 1]. *)
val fraction : t -> float

(** Estimated seconds remaining: 0 when complete, [infinity] until a
    rate is known, finite and non-negative otherwise. *)
val eta_s : t -> float
