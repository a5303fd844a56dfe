(** The WaMPDE in coefficient space: a literal implementation of the
    paper's eq. (19),

    [d Qhat_i / d t2 + (2 pi j) i omega(t2) Qhat_i + Fhat_i = Bhat_i,]

    time-stepped in [t2] with the theta method, with the Fourier phase
    condition of eq. (20) closing the system.  The unknowns are the
    centered Fourier coefficients [Xhat_i(t2)] of every state variable
    plus the local frequency — exactly the quantities a harmonic
    balance code manipulates, demonstrating the paper's remark that
    "existing codes for … harmonic balance can be modified easily to
    perform WaMPDE-based calculations".

    This is a {e reference} implementation (finite-difference Newton
    Jacobians): it is validated against, and should match, the
    production time-domain collocation solver {!Envelope} — the two
    are related by the unitary discrete Fourier transform. *)

open Linalg

type result = {
  t2 : Vec.t;
  omega : Vec.t;
  coeffs : Cx.Cvec.t array array;
      (** [coeffs.(step).(v)] — centered coefficients of variable [v] *)
  harmonics : int;
}

(** [simulate dae ~harmonics ~phase_harmonic ~phase_component ~t2_end
     ~h2 ~init] advances from the unforced orbit [init] (resampled
    into coefficient space; its grid must have [2 harmonics + 1]
    points).  The phase condition is [Im Xhat^component_harmonic = 0].
    Each slow step is a dense FD-Jacobian Newton solve.

    Newton failures halve the slow step via the shared {!Step_control}
    policy; the step grows back toward [h2] on recovery.  Raises
    [Step_control.Underflow] when recovery drives the step below
    [1e-9 * h2]. *)
val simulate :
  Dae.t ->
  harmonics:int ->
  ?phase_component:int ->
  ?phase_harmonic:int ->
  t2_end:float ->
  h2:float ->
  init:Steady.Oscillator.orbit ->
  unit ->
  result

(** [eval_coefficient result ~step ~component ~harmonic] reads one
    coefficient. *)
val eval_coefficient : result -> step:int -> component:int -> harmonic:int -> Cx.c
