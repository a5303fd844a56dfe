(** The [t1] semi-discretization of the WaMPDE (paper eq. (16)), shared
    by the envelope, quasiperiodic and MPDE solvers and the unforced
    orbit.

    Collocation on an odd uniform [t1] grid of period 1 turns eq. (16)
    into [dQ/dt2 + g(X, omega, t2) = 0] with

    [g_j = omega (D Q)_j + f(t2, X_j) [+ b_j]],  [Q_j = q(X_j)]

    for the differentiation matrix [D].  [omega] is either an unknown
    closed by a phase condition (eq. (20)) or fixed: the plain MPDE is
    [omega = 1 / p1].  Two [t2] treatments are built on [g]: a theta
    step (envelope) and periodic collocation, solved by {!Periodic.solve}
    (quasiperiodic, the MPDE's periodic solves, and at [n2 = 1] the
    unforced orbit).

    Unknown layout of a slice: [y.(j * n + i)] is component [i] at grid
    point [j], then [omega] in [y.(n1 * n)] when it is unknown; a
    periodic system stacks [n2] slices.  Values hold mutable scratch:
    use each from one domain at a time. *)

open Linalg

type omega =
  | Unknown of Vec.t  (** trailing unknown, closed by this length-[n1 n] phase row *)
  | Fixed of float

type t

(** [make dae ~d ~omega ~forcing]: [forcing j ~t2] is the extra term
    [b_j].  Raises [Invalid_argument] on a phase row of the wrong
    length. *)
val make :
  System.t -> d:Mat.t -> omega:omega -> forcing:(int -> t2:float -> Vec.t) option -> t

(** Unknowns per slice: [n1 n], plus one when [omega] is unknown. *)
val size : t -> int

(** Raises [Invalid_argument "<fn>: expected <n1> states of dimension
    <n>"] unless the grid has that shape. *)
val check_grid : t -> fn:string -> Vec.t array -> unit

(** One slice, fresh; [omega] is dropped when it is fixed. *)
val pack : t -> Vec.t array -> float -> Vec.t

(** [unpack t y ~off] copies the grid states of the slice at [y.(off)]. *)
val unpack : t -> Vec.t -> off:int -> Vec.t array

(** [omega_at t y ~off]: the slice's [omega] unknown, or the fixed value. *)
val omega_at : t -> Vec.t -> off:int -> float

(** [g t ~t2 y] (fresh, length [n1 n]); [q] is evaluated once per grid
    point. *)
val g : t -> t2:float -> Vec.t -> Vec.t

(** {1 Linearization} *)

type border = { col : Vec.t  (** [d/d omega] *); row : Vec.t  (** phase row *) }

(** The slice Jacobian [[J col] [row 0]], [J = alpha (D (x) C) +
    blockdiag(B)] as one {!Structured.op}.  Its blocks, its border
    column and its operator's scratch belong to the slice and are
    refilled by every linearization of it: a returned [lin] is valid
    until the next linearization of the same system (a theta step's)
    or of the same periodic slice. *)
type lin = {
  op : Structured.op;
  c_blocks : Mat.t array;  (** [C_j = dq(X_j)] *)
  border : border option;  (** [None] when [omega] is fixed *)
}

(** [dense_into lin jac] assembles [lin] into a caller-owned square
    matrix of its size, so the dense path factors the operator the
    Krylov path applies; it writes every entry of [jac]. *)
val dense_into : lin -> Mat.t -> unit

(** [apply_into lin v out] writes [lin v] into [out] (no aliasing). *)
val apply_into : lin -> Vec.t -> Vec.t -> unit

(** A Krylov solve's preconditioner, kept from one Newton iteration
    to the next, and its buffers, kept for the run: empty until
    {!with_precond} first builds it. *)
type precond

val precond : unit -> precond

(** [drop kept] forgets the kept build, as a change of the system
    needs: the next {!with_precond} builds afresh into the same
    buffers. *)
val drop : precond -> unit

(** [with_precond ?coupling kept lins solve] is [solve m_inv] for the
    preconditioner kept in [kept].  With none kept, or when [solve]
    returns [None] with the kept one, it builds the preconditioner of
    the slices [lins] into [kept]'s buffers, bitwise a fresh build, and
    runs [solve] with that: {!Structured.make_precond} over their
    operators with the slow [coupling] when given, bordered
    ({!Structured.make_bordered}) when omega is unknown.  [None] when
    that build degenerates (nothing is kept then) or [solve] fails
    with it. *)
val with_precond :
  ?coupling:Mat.t -> precond -> lin array -> ((Vec.t -> Vec.t -> unit) -> 'a option) -> 'a option

(** {1 Theta step in t2} *)

(** The system [q(X) - q0 + h theta g(y) + h (1 - theta) g0] plus the
    phase row, for the step to [t2] from a grid with charges [q0]
    (flat, [j n + i]) and [g0 = g] there. *)
type step

(** [charges t ~t2 states] is the flat [Q = (q(X_j))_j] of a grid
    (fresh, length [n1 n]); one evaluation per grid point. *)
val charges : t -> t2:float -> Vec.t array -> Vec.t

(** [step t ~t2 ~h ~theta ~q0 ~g0]; the step keeps [q0] and [g0]
    without copying them. *)
val step : t -> t2:float -> h:float -> theta:float -> q0:Vec.t -> g0:Vec.t -> step

(** Writes the step residual into its last argument (length {!size}). *)
val step_residual_into : step -> Vec.t -> Vec.t -> unit

(** [step_point st] is [(g, q)], fresh copies of [g] and of the
    charges [Q] at the point of [st]'s last {!step_residual_into}: the
    [g0] and [q0] of a step that starts there, bitwise those that
    {!g} and {!charges} would evaluate again (q reads no time).  Raises
    [Invalid_argument] if [st] has no residual, or if {!g}, a
    linearization or another step's residual has evaluated the system
    since. *)
val step_point : step -> Vec.t * Vec.t

(** [alpha = h theta omega], [B_j = C_j + h theta df(X_j)],
    [col = h theta D Q]. *)
val step_linearize : step -> Vec.t -> lin

(** {1 Periodic in t2} *)

(** [n2] slices at [t2_m = m p2 / n2], residual [g + (D2 Q) / p2]. *)
type periodic

(** [periodic t ~p2 ~d2]: [d2] differentiates over period 1. *)
val periodic : t -> p2:float -> d2:Mat.t -> periodic

(** Fresh; [q] is evaluated once per grid point. *)
val periodic_residual : periodic -> Vec.t -> Vec.t

(** Per slice, the Jacobian of {!g}: [alpha = omega], [B_j = df(X_j)],
    [col = D Q]; the slices couple through [(1/p2) d2_mq blockdiag(C^q)]. *)
val periodic_linearize : periodic -> Vec.t -> lin array

(** [periodic_dense_into p lins jac] assembles the periodic Jacobian
    of {!periodic_linearize}'s [lins] into the caller's square [jac] of
    [n2 size] rows: each slice's {!dense_into} block on the diagonal plus
    the coupling [(1/p2) d2_mq blockdiag(C^q)].  It writes every entry
    of [jac], so a buffer that [Linalg.Lu.factor_into] has factored
    (rows permuted) can be refilled for the next iteration.  Raises
    [Invalid_argument] unless [lins] has [n2] slices and [jac] that
    shape. *)
val periodic_dense_into : periodic -> lin array -> Mat.t -> unit

(** [periodic_apply_into p lins v out] writes the matrix-free product
    with the periodic Jacobian into [out] (no aliasing), copying one
    slice at a time through scratch held in [p]. *)
val periodic_apply_into : periodic -> lin array -> Vec.t -> Vec.t -> unit
