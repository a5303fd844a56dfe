open Linalg

let check_odd name n =
  if n < 1 || n mod 2 = 0 then
    invalid_arg (Printf.sprintf "Series.%s: length %d must be odd" name n)

let coeffs x =
  let n = Array.length x in
  check_odd "coeffs" n;
  let m = n / 2 in
  let spectrum = Fft.fft_real x in
  let scale = 1. /. float_of_int n in
  (* FFT bin k holds harmonic k for k <= M and harmonic k - n for k > M *)
  Array.init n (fun idx ->
      let i = idx - m in
      let k = if i >= 0 then i else i + n in
      Cx.scale scale spectrum.(k))

let harmonic c i =
  let n = Array.length c in
  let m = n / 2 in
  if i < -m || i > m then invalid_arg "Series.harmonic: index out of range";
  c.(i + m)

let eval c ~period t =
  let n = Array.length c in
  let m = n / 2 in
  let s = ref 0. in
  for idx = 0 to n - 1 do
    let i = idx - m in
    let theta = 2. *. Float.pi *. float_of_int i *. t /. period in
    s := !s +. ((Cx.re c.(idx) *. cos theta) -. (Cx.im c.(idx) *. sin theta))
  done;
  !s

let interp x ~period t = eval (coeffs x) ~period t

(* Trefethen's negative-sum-trick-free formula for odd n, scaled from
   period 2 pi to period 1: D_jk = pi (-1)^(j-k) / sin(pi (j-k) / n). *)
let diff_matrix n =
  check_odd "diff_matrix" n;
  Mat.init n n (fun j k ->
      if j = k then 0.
      else begin
        let d = j - k in
        let sign = if (d land 1) = 0 then 1. else -1. in
        Float.pi *. sign /. sin (Float.pi *. float_of_int d /. float_of_int n)
      end)

let diff_matrix_fd ~order n =
  if n < 5 then invalid_arg "Series.diff_matrix_fd: n < 5";
  let h = 1. /. float_of_int n in
  let wrap i = ((i mod n) + n) mod n in
  match order with
  | 2 ->
    Mat.init n n (fun j k ->
        if k = wrap (j + 1) then 1. /. (2. *. h)
        else if k = wrap (j - 1) then -1. /. (2. *. h)
        else 0.)
  | 4 ->
    Mat.init n n (fun j k ->
        if k = wrap (j + 1) then 8. /. (12. *. h)
        else if k = wrap (j - 1) then -8. /. (12. *. h)
        else if k = wrap (j + 2) then -1. /. (12. *. h)
        else if k = wrap (j - 2) then 1. /. (12. *. h)
        else 0.)
  | o -> invalid_arg (Printf.sprintf "Series.diff_matrix_fd: order %d not in {2, 4}" o)

let truncation_error x ~keep =
  let c = coeffs x in
  let n = Array.length c in
  let m = n / 2 in
  let total = ref 0. and dropped = ref 0. in
  for idx = 0 to n - 1 do
    let i = idx - m in
    let p = Complex.norm2 c.(idx) in
    total := !total +. p;
    if abs i > keep then dropped := !dropped +. p
  done;
  if !total = 0. then 0. else sqrt (!dropped /. !total)

type resolution = { needed : int; available : int; tail : float }

(* Suffix sums of per-band spectral energy make every truncation query
   O(1): with energy.(a) the energy of harmonics +-a, the suffix sum
   s.(a) over bands >= a gives the relative error of keeping harmonics
   |i| <= keep as sqrt (s.(keep + 1) / s.(0)).  The sums overwrite
   [energy]. *)
let resolution_of_bands ~tol ?band (energy : Vec.t) =
  let m = Array.length energy - 1 in
  for a = m - 1 downto 0 do
    energy.(a) <- energy.(a) +. energy.(a + 1)
  done;
  let total = energy.(0) in
  let rel a = if total = 0. then 0. else sqrt (energy.(a) /. total) in
  let needed =
    let keep = ref 0 in
    while !keep < m && rel (!keep + 1) > tol do
      incr keep
    done;
    !keep
  in
  (* tail = relative energy in the outermost [band] harmonics: the
     grid's own estimate of what a larger M would still capture *)
  let band = match band with Some b -> max 1 (min m b) | None -> max 1 (m / 3) in
  { needed; available = m; tail = (if m = 0 then 0. else rel (m - band + 1)) }

let resolution_of_coeffs ~tol ?band (c : Cx.Cvec.t) =
  let n = Array.length c in
  check_odd "resolution_of_coeffs" n;
  let m = n / 2 in
  let energy = Array.make (m + 1) 0. in
  for idx = 0 to n - 1 do
    let a = abs (idx - m) in
    energy.(a) <- energy.(a) +. Complex.norm2 c.(idx)
  done;
  resolution_of_bands ~tol ?band energy

let harmonics_needed ~tol x =
  let n = Array.length x in
  check_odd "harmonics_needed" n;
  (resolution_of_coeffs ~tol (coeffs x)).needed

let grid_resolution ~tol ?band (states : Vec.t array) =
  if Array.length states = 0 then invalid_arg "Series.grid_resolution: empty grid";
  let n1 = Array.length states in
  check_odd "grid_resolution" n1;
  let n = Array.length states.(0) in
  let m = n1 / 2 in
  (* the real DFT of each component: X_a and X_{-a} = conj X_a carry
     the same energy, so band a holds 2 |X_a|^2 (the 1/n1 scaling of
     the coefficients cancels in every ratio) *)
  let rdft = Rdft.of_size n1 in
  let sample = Array.make n1 0. in
  let re = Array.make (m + 1) 0. and im = Array.make (m + 1) 0. in
  let energy = Array.make (m + 1) 0. in
  (* worst case over components, with needed and tail taken
     independently: the component that exhausts the harmonic budget is
     not necessarily the one with the fattest tail *)
  let needed = ref 0 and tail = ref 0. in
  for j = 0 to n - 1 do
    for i = 0 to n1 - 1 do
      sample.(i) <- states.(i).(j)
    done;
    Rdft.forward rdft sample ~re ~im;
    energy.(0) <- re.(0) *. re.(0);
    for a = 1 to m do
      energy.(a) <- 2. *. ((re.(a) *. re.(a)) +. (im.(a) *. im.(a)))
    done;
    let r = resolution_of_bands ~tol ?band energy in
    if r.needed > !needed then needed := r.needed;
    if r.tail > !tail then tail := r.tail
  done;
  { needed = !needed; available = m; tail = !tail }

let total_harmonic_distortion c =
  let n = Array.length c in
  let m = n / 2 in
  if m < 1 then 0.
  else begin
    let fund = Complex.norm (harmonic c 1) in
    if fund = 0. then Float.infinity
    else begin
      let s = ref 0. in
      for idx = 0 to n - 1 do
        let i = idx - m in
        if i >= 2 then s := !s +. Complex.norm2 c.(idx)
      done;
      sqrt !s /. fund
    end
  end
