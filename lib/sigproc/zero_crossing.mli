(** Zero-crossing analysis of sampled waveforms: cycle counting,
    instantaneous-frequency estimation, and the phase-error metric used
    to compare transient simulation against the WaMPDE (paper Fig. 12). *)

open Linalg

(** [upward ~times x] are the (linearly interpolated) times where [x]
    crosses zero going upward. *)
val upward : times:Vec.t -> Vec.t -> Vec.t

(** [instantaneous_frequency ~times x] estimates frequency cycle by
    cycle from upward crossings, returning [(t_mid, freq)] pairs:
    frequency [1 / (t_{k+1} - t_k)] reported at the interval midpoint.
    This is the "local frequency" extracted from a 1-D waveform. *)
val instantaneous_frequency : times:Vec.t -> Vec.t -> Vec.t * Vec.t

(** [phase_error ~reference ~test] pairs the k-th upward crossings of
    two waveforms and reports the phase lag of [test] behind
    [reference], in cycles, at each crossing of the reference
    ([(t_ref_k, (t_test_k - t_ref_k) / period_ref_k)]).  The
    comparison stops at the shorter crossing list. *)
val phase_error : reference:Vec.t * Vec.t -> test:Vec.t * Vec.t -> Vec.t * Vec.t

(** [max_abs_phase_error ~reference ~test] is the maximum absolute
    phase error in cycles (0 when fewer than 2 common crossings). *)
val max_abs_phase_error : reference:Vec.t * Vec.t -> test:Vec.t * Vec.t -> float
