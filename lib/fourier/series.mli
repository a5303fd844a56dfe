(** Real Fourier series on uniform periodic grids.

    A real signal sampled at [t_j = j T / n] ([j = 0..n-1], [n = 2M+1]
    odd) is represented by centered complex coefficients [c_i],
    [i = -M..M], stored at array index [i + M], such that

    [x(t) = sum_i c_i e^{2 pi i I t / T}].

    These grids and the spectral differentiation matrix are the
    discrete backbone of the WaMPDE t1 axis (the truncated series of
    the paper's eq. (19)). *)

open Linalg

(** [coeffs x] computes centered coefficients from odd-length samples.
    Raises [Invalid_argument] on even length. *)
val coeffs : Vec.t -> Cx.Cvec.t

(** [harmonic coeffs i] is [c_i] for [i] in [-M..M]. *)
val harmonic : Cx.Cvec.t -> int -> Cx.c

(** [eval coeffs ~period t] evaluates the series at time [t] (real
    part; the imaginary part is O(eps) for coefficients of a real
    signal). *)
val eval : Cx.Cvec.t -> period:float -> float -> float

(** [interp x ~period t] trigonometric interpolation of odd-length
    samples [x] at arbitrary [t]. *)
val interp : Vec.t -> period:float -> float -> float

(** [diff_matrix n] is the [n x n] spectral differentiation matrix for
    period-1 signals on the uniform grid ([n] odd): [(diff_matrix n) x]
    is the exact derivative of the degree-M trigonometric interpolant
    at the grid points. *)
val diff_matrix : int -> Mat.t

(** [diff_matrix_fd ~order n] is a central-finite-difference periodic
    differentiation matrix for period-1 grids; [order] is 2 or 4. *)
val diff_matrix_fd : order:int -> int -> Mat.t

(** [truncation_error x ~keep] is the relative l2 error committed by
    dropping all harmonics with [|i| > keep] from the samples [x]. *)
val truncation_error : Vec.t -> keep:int -> float

(** [harmonics_needed ~tol x] is the smallest [keep] such that
    [truncation_error x ~keep <= tol] (at most [M]).  Computed in
    O(M) from a suffix sum of per-band spectral energy (one FFT plus
    one pass), not by re-evaluating {!truncation_error} per candidate
    [keep]. *)
val harmonics_needed : tol:float -> Vec.t -> int

(** Spectral-resolution summary of one odd-length grid: [needed] is
    {!harmonics_needed}, [available] is [M = n/2], and [tail] is the
    relative l2 energy carried by the outermost [band] harmonics
    ([|i| > M - band]) — the grid's own estimate of what a larger [M]
    would still capture.  [band] defaults to [max 1 (M/3)]. *)
type resolution = { needed : int; available : int; tail : float }

(** [resolution_of_coeffs ~tol ?band c] is the summary above, from
    precomputed centered coefficients [c]. *)
val resolution_of_coeffs : tol:float -> ?band:int -> Cx.Cvec.t -> resolution

(** [grid_resolution ~tol states] is the worst-case {!resolution} over
    the components of a t1 collocation grid: [states.(i)] is the state
    vector at the [i]-th of [n1] (odd) uniform t1 points, and each
    component's periodic sample [states.(0..n1-1).(j)] is analysed
    separately, taking [needed] and [tail] as maxima over components.
    The components go through the real DFT of [Linalg.Rdft], not
    {!coeffs}, so a call allocates only its O(n1) scratch.  Raises
    [Invalid_argument] on an empty or even-length grid. *)
val grid_resolution : tol:float -> ?band:int -> Vec.t array -> resolution

(** [total_harmonic_distortion coeffs] is the THD relative to the
    fundamental: the rms of harmonics 2 and above over the magnitude of
    harmonic 1. *)
val total_harmonic_distortion : Cx.Cvec.t -> float
