(** Restarted GMRES (Saad) for real linear systems, matrix-free.

    The operator is supplied as a function; an optional right
    preconditioner [m_inv] approximates [A^{-1}].  Used by the WaMPDE
    envelope and quasiperiodic solvers for large coupled systems, per
    the paper's reference to iterative linear techniques [Saa96].

    {b Into-contract.}  [matvec] and [m_inv] write their result into a
    caller-supplied output: [matvec v out] stores [A v] in [out] and
    [m_inv v out] stores [M^{-1} v].  The output never aliases the
    input, and both callbacks must overwrite every entry of [out].
    With a {!workspace}, an iteration allocates nothing that grows with
    the system size. *)

type result = {
  x : Vec.t;  (** approximate solution (fresh, owned by the caller) *)
  residual_norm : float;  (** final true-residual 2-norm *)
  iterations : int;  (** total inner iterations performed *)
  converged : bool;  (** [residual_norm <= tol * ||b||] *)
}

(** The Krylov basis, Hessenberg matrix, Givens rotations and work
    vectors of one solve.  A workspace may be reused across any number
    of sequential solves of the same shape: no state carries over, so
    each result is bitwise that of a fresh workspace.  It must not be
    shared across domains or by nested solves (a [matvec] or [m_inv]
    that itself runs GMRES needs its own). *)
type workspace

(** [workspace ~n ?restart ?max_iter ()] allocates a workspace for
    systems of [n] unknowns with the Hessenberg sized
    [min restart max_iter] ([restart] and [max_iter] default as in
    {!solve}). *)
val workspace : n:int -> ?restart:int -> ?max_iter:int -> unit -> workspace

(** [solve ~matvec ?m_inv ?ws ?x0 ?restart ?max_iter ?tol b] solves
    [A x = b].

    @param m_inv right preconditioner: [m_inv v out] writes an
    approximation of [A^{-1} v]; must be a {e linear} map (the solution
    is reconstructed by applying it once to the combined Krylov
    correction)
    @param ws caller-owned workspace (default: a fresh one per solve);
    raises [Invalid_argument] unless it was made for [n = length b] and
    the same [min restart max_iter]
    @param x0 initial guess (default zero)
    @param restart Krylov subspace dimension before restart (default 50)
    @param max_iter total inner-iteration budget (default [10 * restart])
    @param tol relative residual tolerance (default 1e-10) *)
val solve :
  matvec:(Vec.t -> Vec.t -> unit) ->
  ?m_inv:(Vec.t -> Vec.t -> unit) ->
  ?ws:workspace ->
  ?x0:Vec.t ->
  ?restart:int ->
  ?max_iter:int ->
  ?tol:float ->
  Vec.t ->
  result
