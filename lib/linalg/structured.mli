(** Structured operators for collocation-style Newton systems.

    The WaMPDE/HB collocation Jacobian has the form

    {[ J = alpha (D (x) C) + blockdiag(B_1 .. B_n1) ]}

    where [D] is the (circulant) [n1 x n1] differentiation matrix of the
    periodic fast-time grid, [C_k = dq(x_k)] and [B_j] collects the
    remaining per-point blocks (typically [dq + h theta df] or [df]).
    This module provides matrix-free products with that operator, a
    DFT-diagonalized averaged-Jacobian block preconditioner for [n2]
    such operators coupled in [t2], and a bordered (Schur) treatment
    of their trailing oscillator-frequency columns and phase-condition
    rows, so preconditioned {!Gmres} replaces the dense
    O((n2 n1 n)^3) LU factorization.

    Instrumented via [gmres.precond.builds], [gmres.precond.applies],
    [gmres.precond.block_factors] and [gmres.precond.fallbacks] in
    {!Wampde_obs.Metrics}.

    The per-block kernels (operator rows in {!apply_into}, the complex
    factorizations in {!make_precond}) run on the {!Par.Pool} domain
    pool when [--jobs] exceeds 1; a preconditioner apply opens no
    parallel region.  Every parallel region uses a
    fixed chunk assignment with disjoint writes and no cross-chunk
    reductions, so results are bitwise identical for every job
    count.

    {b Into-contract.}  The [_into] functions write their result into
    a caller-supplied output that must not alias the input; the
    preconditioner applies are linear maps (as {!Gmres} requires of
    [m_inv]).  A [precond] carries per-apply scratch, so one [precond]
    (or a [bordered] built on it) is applied from one calling domain
    at a time.  Steady-state applies allocate a bounded number of
    words, independent of [n1] and [n2]. *)

(** How a caller should solve its collocation Newton systems. *)
type strategy =
  | Dense  (** always assemble + LU factor *)
  | Krylov  (** always matrix-free preconditioned GMRES *)
  | Auto of int  (** Krylov once the unknown count reaches the threshold *)

(** Default [Auto] threshold on the number of unknowns. *)
val default_threshold : int

(** [auto] is [Auto default_threshold]. *)
val auto : strategy

(** [use_krylov strategy ~dim] decides the path for a system of [dim]
    unknowns. *)
val use_krylov : strategy -> dim:int -> bool

(** Record a fallback from the Krylov path to dense LU (bumps the
    [gmres.precond.fallbacks] counter). *)
val fallback_to_dense : unit -> unit

(** {1 Matrix-free operator} *)

type op

(** [make_op ~alpha ~d ~c_blocks ~b_blocks] builds the operator
    [alpha (D (x) C) + blockdiag(B)].  [c_blocks] and [b_blocks] hold
    one [n x n] block per collocation point; [d] is [n1 x n1].  The
    block matrices are captured by reference, not copied. *)
val make_op : alpha:float -> d:Mat.t -> c_blocks:Mat.t array -> b_blocks:Mat.t array -> op

(** Number of unknowns [n1 * n] of the block part. *)
val dim : op -> int

(** [block_mul_into blocks ~src ~dst] applies a block-diagonal matrix:
    [dst_k = blocks_k src_k] for each length-[n] slice. *)
val block_mul_into : Mat.t array -> src:Vec.t -> dst:Vec.t -> unit

(** [apply_into op v out] writes [J v] into [out].  Only the first
    [dim op] entries of [v] and [out] are touched, so longer (bordered)
    vectors can be passed.  [out] must not alias [v]. *)
val apply_into : op -> Vec.t -> Vec.t -> unit

(** [apply_bordered_into op ~border_col ~border_row v out] applies the
    [(dim + 1)]-square bordered operator [[J b] [p 0]]. *)
val apply_bordered_into : op -> border_col:Vec.t -> border_row:Vec.t -> Vec.t -> Vec.t -> unit

(** [dense_into ?off op jac] writes the dense block part into the
    [dim op] square of [jac] whose top-left entry is [(off, off)]
    (default [0]), every entry of that square and no other.  This is
    the dense path of the WaMPDE and MPDE solvers ([Dae.Semidisc]):
    dense LU factors exactly the operator the Krylov path applies, and
    a periodic system places each slice's block on the diagonal of its
    stacked matrix.  Raises [Invalid_argument] on a negative [off], or
    if [jac] or a C block is smaller than that. *)
val dense_into : ?off:int -> op -> Mat.t -> unit

(** {1 Slice-coupled averaged-Jacobian preconditioner}

    One preconditioner for [n2] slices, each a collocation operator
    [alpha_m (D (x) C^m) + blockdiag(B^m)] on the same [t1] grid,
    coupled by [K (x) C]: slice [m]'s rows add [K_mq blockdiag(C^q)]
    applied to slice [q].  The periodic-in-[t2] WaMPDE Jacobian is this
    with [K = D2 / p2]; the envelope's theta step is [n2 = 1] with no
    coupling. *)

type precond

(** [make_precond ?into ?coupling ops] averages each slice's [C]/[B]
    blocks over [t1], diagonalizes the circulant [D] with the real DFT
    of {!Rdft} and, for each wavenumber [k = 0..n1/2] (conjugate
    symmetry supplies the rest), factors the complex [n2 n] system
    [blockdiag_m (alpha_m lambda_k Cbar_m + Bbar_m) + K (x) Cbar] by
    {!Cx.Clu} on split re/im arrays.  [coupling] is the
    [n2 x n2] matrix [K] (default none); the [ops] share one [D].  The
    blocks factor on the {!Par.Pool}.  [?into] reuses the buffers of a
    precond of the same shape (it is refilled, bitwise what a fresh
    build gives, and returned), so a caller that rebuilds every Newton
    iteration allocates them once; another shape allocates afresh.
    Raises [Invalid_argument] on an even [n1] (through
    {!Rdft.of_size}) or mismatched shapes, [Cx.Clu.Singular] on a
    singular block.  Each build bumps [gmres.precond.builds] once and
    [gmres.precond.block_factors] and [lu.factor_complex] [n1/2 + 1]
    times. *)
val make_precond : ?into:precond -> ?coupling:Mat.t -> op array -> precond

(** [precond_apply_into pc v out] writes the approximate inverse
    applied to [v] into [out], slice [m] at [m n1 n]: a real DFT of
    each (slice, component) across the t1 grid, one block solve per
    wavenumber [0..n1/2] and the real inverse, in one sequential pass.
    Only the first [n2 n1 n] entries of [v] are read and of [out]
    written.  [out] must not alias [v]. *)
val precond_apply_into : precond -> Vec.t -> Vec.t -> unit

type bordered

exception Bordered_singular of float
(** The border Schur complement degenerated (carries the offending
    entry or pivot, possibly NaN). *)

(** [make_bordered ?into pc ~cols ~rows] extends [pc] to the system
    bordered by one column and one row per slice (slice [m]'s omega
    column [cols.(m)] and phase row [rows.(m)], each of length [n1 n])
    through the exact [n2 x n2] Schur complement of the approximate
    block inverse.  A Schur complement with a pivot under 1e-300 is
    shifted by 1e-9 on its diagonal, away from zero (gmin style), so a
    nearly-degenerate border still yields a usable, if weaker,
    preconditioner; {!Bordered_singular} is raised if it has a
    non-finite entry or stays singular.  [?into], a bordered
    preconditioner of the same shape, is refilled and returned, as in
    {!make_precond}. *)
val make_bordered : ?into:bordered -> precond -> cols:Vec.t array -> rows:Vec.t array -> bordered

(** [bordered_apply_into bp v out] applies the bordered approximate
    inverse to [v], [n2] slices of [n1 n + 1] entries with the omega
    unknown last, writing all of [out] (which must not alias [v]). *)
val bordered_apply_into : bordered -> Vec.t -> Vec.t -> unit
