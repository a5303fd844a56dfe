(** LU factorization with partial pivoting, and direct linear solves.

    The factorization is the workhorse behind every Newton iteration in
    the transient, steady-state and WaMPDE solvers.  One kernel of each
    kind: {!factor_into} factors a caller-owned matrix in place and
    {!solve_into} substitutes into a caller-owned vector, so a loop
    that refactors the same-sized system allocates nothing per
    iteration; {!factor} and {!solve} are their allocating forms.

    The factorization is right-looking and eliminates two pivot
    columns per sweep: one pass over the trailing matrix applies both
    steps to each row, [(r_ij - m0 r_kj) - m1 r_(k+1)j].  Every entry
    receives the subtractions of the one-column Doolittle loop in the
    same order, and a zero multiplier skips its term as that loop
    does, so pivots, permutation, factors (signed zeros, NaN and
    infinities included) and the column of {!Singular} are bitwise
    those of the one-column loop.

    That pass, the O(n^3) part, runs in C ([lu_stubs.c]), built with
    [-O3 -ffp-contract=off] and no [-march] or fast-math: the compiler
    vectorizes it but may neither fuse a multiply-add nor reorder a
    sum.  On x86-64 with glibc, under GCC or Clang (one preprocessor
    test), the sweep is built twice with [target_clones]: an AVX2 body
    (four doubles a vector) and the baseline SSE2 one, and the dynamic
    loader picks the AVX2 body once, on a CPU that has it; nothing
    else selects it.  Other targets build the baseline body only
    (SSE2, NEON).  No fused multiply-add can appear: the [avx2] target
    does not enable FMA and [-ffp-contract=off] forbids contraction,
    and AVX rounds each lane as SSE2 does, so every body gives the
    same bits (CI checks the object for the clone and for any FMA).
    Pivoting, the column-(k+1) pass and an odd n's last column stay
    in OCaml, and so does the whole factorization below 10 rows,
    where the C calls cost more than they save.  The C code may
    commute a product, which changes the bits of a NaN times a NaN of
    another payload; so a
    matrix that holds a NaN on entry is swept in OCaml, and one that
    holds none can only meet the one default NaN that inf - inf,
    0 inf and 0/0 produce.  The stub reads each row as a flat block of
    doubles: the module fails at initialization if OCaml was
    configured without flat float arrays.

    The substitution is OCaml, with no C.  Forward, each row of L
    subtracts its terms in ascending column order, bitwise the plain
    row loop.  Backward, each row of U subtracts its terms in
    descending column order, the last column first: rows then share
    no chain until they meet their own small triangle, so eight run
    side by side (an ascending sum would start every row from the x
    the row below has just produced).  The answer is bitwise the plain
    row loop in that order; against an ascending back substitution it
    moves in the last bits. *)

type t
(** A factored matrix [P A = L U]. *)

exception Singular of int
(** Raised (with the offending pivot column) when a pivot is exactly
    zero, i.e. the matrix is numerically singular. *)

(** [factor_into a ~perm] factors the square matrix [a] in place and
    returns the factorization, which aliases [a] and [perm] (length
    [rows a], overwritten).  Pivoting swaps the row arrays of [a], so
    a caller that refills [a] for the next factorization must write
    every entry.  Raises [Singular] if a zero pivot is met and
    [Invalid_argument] if [a] is not square. *)
val factor_into : Mat.t -> perm:int array -> t

(** [factor_into_baseline a ~perm] is {!factor_into} with the C
    sweep's baseline body (SSE2 on x86-64) in place of the one the
    loader dispatches to; the bits are the same.  A test hook: on a
    CPU with AVX2 no other call runs the baseline body. *)
val factor_into_baseline : Mat.t -> perm:int array -> t

(** [factor a] is [factor_into] on a copy of [a]; [a] is not
    modified. *)
val factor : Mat.t -> t

(** [solve_into lu b x] solves [A x = b] into [x], which must not be
    [b], and allocates nothing.  The forward substitution runs four
    rows side by side, each still subtracting its terms in ascending
    column order, so its result is bitwise that of the plain
    row-by-row loop.  The back substitution subtracts each row's terms
    in descending column order, x_i = ((y_i - u_i,n-1 x_n-1) - ... -
    u_i,i+1 x_i+1) / u_ii, eight rows side by side over the columns
    already solved; [x] is bitwise that of the plain row-by-row
    substitution in that order (NaN payloads included). *)
val solve_into : t -> Vec.t -> Vec.t -> unit

(** [solve lu b] solves [A x = b] into a fresh vector. *)
val solve : t -> Vec.t -> Vec.t
