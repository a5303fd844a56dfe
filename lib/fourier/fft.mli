(** Fast Fourier transforms.

    Power-of-two sizes use an iterative radix-2 Cooley–Tukey transform;
    every other size is handled with Bluestein's chirp-z algorithm, so
    [fft] is O(n log n) for all [n].  The forward transform uses the
    engineering sign convention [X_k = sum_j x_j e^{-2 pi i j k / n}].
    [fft] may be called from several domains at once: the Bluestein
    plan cache is shared under a mutex and the convolution scratch is
    per domain.  The solvers' odd-length real transforms of the t1
    grid (the block preconditioner, the spectral health gauge) use the
    table-driven [Linalg.Rdft] instead. *)

open Linalg

(** [fft x] is the forward discrete Fourier transform of [x]. *)
val fft : Cx.Cvec.t -> Cx.Cvec.t

(** [fft_real x] is [fft] of a real signal. *)
val fft_real : Vec.t -> Cx.Cvec.t

(** [dft x] is the naive O(n^2) transform, kept as a reference
    implementation for testing. *)
val dft : Cx.Cvec.t -> Cx.Cvec.t
