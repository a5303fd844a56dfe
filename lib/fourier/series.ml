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
   O(1): suffix.(a) = sum of |c_i|^2 over |i| >= a, so the relative
   error of keeping harmonics |i| <= keep is
   sqrt (suffix.(keep + 1) / suffix.(0)). *)
let energy_suffix (c : Cx.Cvec.t) =
  let n = Array.length c in
  let m = n / 2 in
  let band = Array.make (m + 1) 0. in
  for idx = 0 to n - 1 do
    let a = abs (idx - m) in
    band.(a) <- band.(a) +. Complex.norm2 c.(idx)
  done;
  let suffix = Array.make (m + 2) 0. in
  for a = m downto 0 do
    suffix.(a) <- suffix.(a + 1) +. band.(a)
  done;
  suffix

let resolution_of_coeffs ~tol ?band (c : Cx.Cvec.t) =
  let n = Array.length c in
  check_odd "resolution_of_coeffs" n;
  let m = n / 2 in
  let suffix = energy_suffix c in
  let total = suffix.(0) in
  let rel a = if total = 0. then 0. else sqrt (suffix.(a) /. total) in
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

let resolution ~tol ?band x = resolution_of_coeffs ~tol ?band (coeffs x)

let harmonics_needed ~tol x =
  let n = Array.length x in
  check_odd "harmonics_needed" n;
  (resolution_of_coeffs ~tol (coeffs x)).needed

let grid_resolution ~tol ?band (states : Vec.t array) =
  if Array.length states = 0 then invalid_arg "Series.grid_resolution: empty grid";
  let n1 = Array.length states in
  check_odd "grid_resolution" n1;
  let n = Array.length states.(0) in
  (* worst case over components, with needed and tail taken
     independently: the component that exhausts the harmonic budget is
     not necessarily the one with the fattest tail *)
  let needed = ref 0 and tail = ref 0. in
  let sample = Array.make n1 0. in
  for j = 0 to n - 1 do
    for i = 0 to n1 - 1 do
      sample.(i) <- states.(i).(j)
    done;
    let r = resolution ~tol ?band sample in
    if r.needed > !needed then needed := r.needed;
    if r.tail > !tail then tail := r.tail
  done;
  { needed = !needed; available = n1 / 2; tail = !tail }

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
