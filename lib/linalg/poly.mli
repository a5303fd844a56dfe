(** Real-coefficient polynomials and complex root finding.

    Coefficients are stored constant-first: [c.(k)] multiplies [x^k].
    Roots are found with the Durand–Kerner (Weierstrass) simultaneous
    iteration, which is robust for the small/medium degrees arising
    from characteristic polynomials of monodromy matrices. *)

(** [roots ?max_iterations ?tol c] are all complex roots of the
    polynomial (degree = [length c - 1] after trailing zeros are
    stripped).  Raises [Invalid_argument] on the zero polynomial and
    [Failure] when the iteration does not converge. *)
val roots : ?max_iterations:int -> ?tol:float -> Vec.t -> Cx.Cvec.t

(** [from_roots rs] reconstructs monic-polynomial coefficients from
    complex roots (must come in conjugate pairs for a real result;
    the imaginary residue is dropped). *)
val from_roots : Cx.Cvec.t -> Vec.t
