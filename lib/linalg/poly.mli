(** Real-coefficient polynomials and complex root finding.

    Coefficients are stored constant-first: [c.(k)] multiplies [x^k].
    Roots are found with the Durand–Kerner (Weierstrass) simultaneous
    iteration, which is robust for the small/medium degrees arising
    from characteristic polynomials of monodromy matrices. *)

exception No_convergence of int
(** Durand–Kerner did not converge in that many iterations.  A printer
    is registered. *)

(** [roots ?max_iterations ?tol c] are all complex roots of the
    polynomial (degree = [length c - 1] after trailing zeros are
    stripped).  The iteration stops when every correction is below
    [tol] (relative to the roots' radius bound) or when [|p|] at every
    root is down to the rounding error of evaluating it,
    [8 eps sum_k |c_k| |z|^k] for the monic polynomial.  The second
    test ends the iteration on a multiple or nearly multiple root,
    where Durand–Kerner converges only linearly and the root is
    determined only to about [eps^(1/m)] anyway.  Raises
    [Invalid_argument] on the zero polynomial and {!No_convergence}
    when neither test is met within [max_iterations] (a non-finite
    coefficient, for one). *)
val roots : ?max_iterations:int -> ?tol:float -> Vec.t -> Cx.Cvec.t

(** [from_roots rs] reconstructs monic-polynomial coefficients from
    complex roots (must come in conjugate pairs for a real result;
    the imaginary residue is dropped). *)
val from_roots : Cx.Cvec.t -> Vec.t
