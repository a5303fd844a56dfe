/* The O(n^3) part of Lu.factor_into: the fused two-pivot sweep of the
   trailing rows, r_ij <- (r_ij - m0 r_kj) - m1 r_(k+1)j, in C so that
   the compiler vectorizes it (built with -O3 -ffp-contract=off and no
   -march: no fused multiply-add and no reordered sums).  Every entry
   gets the same two roundings, in the same order, as the OCaml loop;
   only the operand order of a product may differ, which changes no
   bit unless both factors are NaNs of different payloads (see lu.ml
   for why that cannot happen here).

   Vector width.  Without -march the compiler may only use the
   target's baseline SIMD: SSE2 on x86-64 (two doubles a vector), NEON
   on arm64.  On x86-64 with glibc the sweep is compiled twice
   (target_clones): an "avx2" body, four doubles a vector, and the
   "default" baseline body.  The dynamic loader's ifunc resolver picks
   the AVX2 body once, at load time, on a CPU that has AVX2; no option
   selects it.  The avx2 target does not enable FMA, -ffp-contract=off
   would forbid contracting even if it did, and AVX's vmulpd/vsubpd
   round each lane exactly as SSE2's mulpd/subpd, so both bodies give
   the same bits (CI checks the object for the clone and for the
   absence of any fused multiply-add).  Other targets, and compilers
   without target_clones, build the baseline body only.

   The matrix is a float array array: a block of row pointers, each
   row a flat block of doubles (lu.ml checks at module init that float
   arrays are flat).  Both stubs only read and write floats in place
   and never allocate, so they are [@@noalloc]. */

#define CAML_NAME_SPACE
#include <limits.h> /* defines __GLIBC__ on glibc */
#include <caml/mlvalues.h>

/* the loops are always inlined into the sweep, so that each clone
   compiles them for its own target */
#if defined(__x86_64__) && defined(__GLIBC__) && (defined(__GNUC__) || defined(__clang__))
#define SWEEP_CLONES __attribute__((target_clones("avx2", "default")))
#define SWEEP_LOOP static inline __attribute__((always_inline)) void
#else
#define SWEEP_CLONES
#define SWEEP_LOOP static void
#endif

#define ROW(lu, i) ((double *)Field((lu), (i)))

SWEEP_LOOP sweep_two(double *restrict ri, const double *restrict r0,
                     const double *restrict r1, double m0, double m1,
                     intnat lo, intnat n)
{
  for (intnat j = lo; j < n; j++) ri[j] = (ri[j] - m0 * r0[j]) - m1 * r1[j];
}

SWEEP_LOOP sweep_one(double *restrict ri, const double *restrict rk,
                     double m, intnat lo, intnat n)
{
  for (intnat j = lo; j < n; j++) ri[j] = ri[j] - m * rk[j];
}

/* Steps k0 and k0+1 on rows k0+2 .. n-1: row k0 holds the first
   pivot row (its multipliers already stored in column k0 of each
   trailing row), row k0+1 the second, already updated by step k0.
   A zero multiplier skips its term, as the one-column loop does. */
SWEEP_CLONES value wampde_lu_sweep(value lu, intnat k0, intnat n)
{
  intnat k1 = k0 + 1;
  const double *r0 = ROW(lu, k0);
  const double *r1 = ROW(lu, k1);
  double p1 = r1[k1];
  for (intnat i = k1 + 1; i < n; i++) {
    double *ri = ROW(lu, i);
    double m0 = ri[k0];
    double m1 = ri[k1] / p1;
    ri[k1] = m1;
    if (m0 != 0.) {
      if (m1 != 0.) sweep_two(ri, r0, r1, m0, m1, k1 + 1, n);
      else sweep_one(ri, r0, m0, k1 + 1, n);
    } else if (m1 != 0.) sweep_one(ri, r1, m1, k1 + 1, n);
  }
  return Val_unit;
}

value wampde_lu_sweep_byte(value lu, value k0, value n)
{
  return wampde_lu_sweep(lu, Long_val(k0), Long_val(n));
}

/* a select on doubles, which the vectorizer takes where an integer
   flag fed by a double compare is not vectorized */
static int row_has_nan(const double *restrict ri, intnat n)
{
  double seen = 0.;
  for (intnat j = 0; j < n; j++) seen = ri[j] != ri[j] ? 1. : seen;
  return seen != 0.;
}

/* Whether any of the first n entries of the n rows is a NaN. */
value wampde_lu_has_nan(value lu, intnat n)
{
  for (intnat i = 0; i < n; i++)
    if (row_has_nan(ROW(lu, i), n)) return Val_true;
  return Val_false;
}

value wampde_lu_has_nan_byte(value lu, value n)
{
  return wampde_lu_has_nan(lu, Long_val(n));
}
