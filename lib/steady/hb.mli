(** Classical frequency-domain harmonic balance for forced periodic
    steady state — the method class the paper cites as the established
    baseline ([NV76], [Haa88], [RN88], [GS91]) and the machinery its
    eq. (19) reuses.

    The state is represented by centered complex Fourier coefficients
    [X_i], [i = -M..M]; the residual is assembled in the frequency
    domain,

    [R_i = (2 pi j i / T) Q_i + F_i = 0,]

    where [Q_i], [F_i] are the coefficients of [q(x(t))] and
    [f(t, x(t))] computed by FFT of pointwise evaluations, and the
    Newton Jacobian is the standard block-Toeplitz operator
    [dR_i/dX_l = (2 pi j i / T) Chat_{i-l} + Ghat_{i-l}] built from the
    matrix-valued coefficients of [C(x(t))] and [G(t, x(t))], solved
    with dense complex LU.  The test suite checks it against the
    time-domain collocation of [Mpde.periodic_initial]. *)

open Linalg

type solution = {
  period : float;
  harmonics : int;  (** M: coefficients run [-M..M] *)
  coeffs : Cx.Cvec.t array;  (** [coeffs.(v).(i + M)] = X_i of variable v *)
}

(** [solve dae ~period ~harmonics ~guess] runs harmonic-balance Newton
    from a time-domain grid guess ([2 harmonics + 1] states).  Raises
    [Failure] when Newton does not converge. *)
val solve :
  Dae.t ->
  period:float ->
  harmonics:int ->
  guess:Vec.t array ->
  solution

(** [solve_from_transient dae ~period ~harmonics ~warmup_periods x0]
    integrates a warm-up transient and polishes with {!solve}. *)
val solve_from_transient :
  Dae.t ->
  period:float ->
  harmonics:int ->
  warmup_periods:int ->
  Vec.t ->
  solution

(** [eval sol ~component t] evaluates the steady-state waveform. *)
val eval : solution -> component:int -> float -> float

(** [grid sol] synthesizes the time-domain states on the collocation
    grid (the inverse of the [guess] format). *)
val grid : solution -> Vec.t array

(** [residual_norm dae sol] is the infinity norm over all harmonics
    and variables of the frequency-domain residual. *)
val residual_norm : Dae.t -> solution -> float

(** [spectrum sol ~component] is the magnitude of each harmonic
    [|X_i|], [i = 0..M]. *)
val spectrum : solution -> component:int -> Vec.t
