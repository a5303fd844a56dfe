(** Fast Fourier transforms.

    Power-of-two sizes use an iterative radix-2 Cooley–Tukey transform;
    every other size is handled with Bluestein's chirp-z algorithm, so
    [fft] is O(n log n) for all [n].  The forward transform uses the
    engineering sign convention [X_k = sum_j x_j e^{-2 pi i j k / n}];
    the inverse divides by [n]. *)

open Linalg

(** [fft x] is the forward discrete Fourier transform of [x]. *)
val fft : Cx.Cvec.t -> Cx.Cvec.t

(** [fft_real x] is [fft] of a real signal. *)
val fft_real : Vec.t -> Cx.Cvec.t

(** [dft x] is the naive O(n^2) transform, kept as a reference
    implementation for testing. *)
val dft : Cx.Cvec.t -> Cx.Cvec.t

(** [structured_dft] packages {!fft}, its inverse and their in-place
    re/im pair forms for injection into [Linalg.Structured] (which sits
    below this library and defaults to a naive transform).  The pair
    forms use the same arithmetic as {!fft} without boxed [Complex.t]
    allocation and are domain-safe: the Bluestein plan cache is shared
    under a mutex and convolution scratch is per-domain. *)
val structured_dft : Structured.dft

