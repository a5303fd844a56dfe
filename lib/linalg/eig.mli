(** Eigenvalues of the small nonsymmetric matrices arising as
    monodromy matrices of periodic orbits (Floquet analysis): the
    characteristic polynomial is formed exactly with the
    Faddeev–LeVerrier recurrence and its roots found with
    Durand–Kerner.  Intended for [n <~ 12]. *)

(** [eigenvalues a] are the complex eigenvalues of a small square
    matrix.  A repeated eigenvalue is returned as the roots of the
    characteristic polynomial determine it, to about [eps^(1/m)] for
    multiplicity [m].  Raises {!Poly.No_convergence} when the root
    finder does not converge (a non-finite entry, for one). *)
val eigenvalues : Mat.t -> Cx.Cvec.t
