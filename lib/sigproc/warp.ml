(* The accumulated cycle count phi, interpolated piecewise linearly
   between the sampled times. *)
type t = Interp1d.t

let of_samples ~times ~omega =
  if Array.length times <> Array.length omega then
    invalid_arg "Warp.of_samples: length mismatch";
  Array.iter (fun w -> if w <= 0. then invalid_arg "Warp.of_samples: omega must be positive") omega;
  Interp1d.create times (Interp1d.cumulative_integral times omega)

let phi w t = Interp1d.eval w t

let total_cycles w =
  let _, t_end = Interp1d.span w in
  Interp1d.eval w t_end
