(** Eigenvalues of the small nonsymmetric matrices arising as
    monodromy matrices of periodic orbits (Floquet analysis): the
    characteristic polynomial is formed exactly with the
    Faddeev–LeVerrier recurrence and its roots found with
    Durand–Kerner.  Intended for [n <~ 12]. *)

(** [eigenvalues a] are the complex eigenvalues of a small square
    matrix. *)
val eigenvalues : Mat.t -> Cx.Cvec.t
