(** Real discrete Fourier transform on odd lengths, from tables.

    For odd [n] the spectrum [X_l = sum_k x_k e^{-2 pi i k l / n}] of a
    real sequence (the convention of [Fourier.Fft]) is
    conjugate-symmetric, so wavenumbers [0..n/2] carry all of it.
    Folding [x_k] with [x_{n-k}] halves the work again: every
    wavenumber is one pair of length-[n/2] dot products against cos/sin
    tables built from the [n] roots of unity.  The transform is
    O(n^2), but with no padding, chirps or boxed complex numbers it
    beats a Bluestein FFT at the odd t1 grid sizes the solvers use
    (EXPERIMENTS.md measures the averaged-block preconditioner on it
    up to [n = 161]).

    The transforms allocate nothing.  A table is immutable and may be
    shared across domains. *)

type t

(** [of_size n] is the table for length [n].  The last few tables
    built are memoized.  Raises [Invalid_argument] unless [n] is odd
    and positive. *)
val of_size : int -> t

(** [forward t x ~re ~im] writes [X_l] for [l = 0..n/2] into
    [re]/[im] (length [n/2 + 1]; [im.(0) = 0]).  [x] has length [n]
    and is overwritten: the transform folds it in place. *)
val forward : t -> Vec.t -> re:Vec.t -> im:Vec.t -> unit

(** [inverse t ~re ~im x] writes into [x] (length [n]) the real
    sequence whose spectrum has [X_l = re.(l) + i im.(l)] for
    [l = 0..n/2] and [X_{n-l} = conj X_l]; the inverse divides by [n]
    and ignores [im.(0)]. *)
val inverse : t -> re:Vec.t -> im:Vec.t -> Vec.t -> unit
