open Linalg

(* [knots]: the slice times, closed by [period] (p2, or 0 when not
   periodic); [phi]: phi at the knots, the trapezoidal integral of
   [omega]; [coeffs.(m * dim + c)]: component c of slice m as
   [a0; a1; b1; ...] with x(t1) = a0 + sum_k (ak cos 2 pi k t1 - bk sin 2 pi k t1),
   empty until first touched *)
type t = {
  knots : Vec.t;
  omega : Vec.t;
  phi : Vec.t;
  period : float;
  slices : Vec.t array array;
  dim : int;
  coeffs : Vec.t array;
}

let make ~t2 ~omega ~slices ?p2 () =
  let m = Array.length t2 in
  if Array.length omega <> m || Array.length slices <> m then
    invalid_arg "Warp.make: length mismatch";
  if m < (if p2 = None then 2 else 1) then invalid_arg "Warp.make: too few slices";
  for i = 1 to m - 1 do
    if not (t2.(i) > t2.(i - 1)) then invalid_arg "Warp.make: t2 not increasing"
  done;
  Array.iter (fun w -> if not (w > 0.) then invalid_arg "Warp.make: omega must be positive") omega;
  let n1 = Array.length slices.(0) in
  if n1 mod 2 = 0 || Array.exists (fun s -> Array.length s <> n1) slices then
    invalid_arg "Warp.make: slices need one odd n1";
  let knots, omega, period =
    match p2 with
    | None -> (t2, omega, 0.)
    | Some p2 ->
      if t2.(0) <> 0. || not (p2 > t2.(m - 1)) then
        invalid_arg "Warp.make: periodic slices must start at 0 and end before p2";
      (Array.append t2 [| p2 |], Array.append omega [| omega.(0) |], p2)
  in
  let phi = Array.make (Array.length knots) 0. in
  for i = 1 to Array.length knots - 1 do
    phi.(i) <- phi.(i - 1) +. (0.5 *. (omega.(i) +. omega.(i - 1)) *. (knots.(i) -. knots.(i - 1)))
  done;
  let dim = Array.length slices.(0).(0) in
  { knots; omega; phi; period; slices; dim; coeffs = Array.make (m * dim) [||] }

(* whole slow periods in [t]; [t] less them lies in [0, p2] up to
   rounding, which the end knots' branches of [phi_in] absorb *)
let[@inline] periods w t = if w.period = 0. then 0. else Float.floor (t /. w.period)

(* the knot interval holding [r]: the first or last beyond the knots *)
let[@inline] locate (knots : Vec.t) (r : float) =
  let lo = ref 0 and hi = ref (Array.length knots - 1) in
  if r >= knots.(!hi) then lo := !hi - 1;
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if knots.(mid) <= r then lo := mid else hi := mid
  done;
  !lo

(* phi at [r] in knot interval [i]: the integral of the linear omega,
   continued at the end knots' omega beyond them *)
let[@inline] phi_in w i r =
  let last = Array.length w.knots - 1 in
  if r <= w.knots.(0) then w.phi.(0) +. (w.omega.(0) *. (r -. w.knots.(0)))
  else if r >= w.knots.(last) then w.phi.(last) +. (w.omega.(last) *. (r -. w.knots.(last)))
  else begin
    let s = r -. w.knots.(i) and h = w.knots.(i + 1) -. w.knots.(i) in
    w.phi.(i) +. (s *. (w.omega.(i) +. ((w.omega.(i + 1) -. w.omega.(i)) *. s /. (2. *. h))))
  end

let phi w t =
  let k = periods w t in
  let r = t -. (k *. w.period) in
  (k *. w.phi.(Array.length w.phi - 1)) +. phi_in w (locate w.knots r) r

let coefficients w m component =
  let idx = (m * w.dim) + component in
  if Array.length w.coeffs.(idx) = 0 then begin
    let n1 = Array.length w.slices.(m) in
    let re = Array.make ((n1 / 2) + 1) 0. and im = Array.make ((n1 / 2) + 1) 0. in
    Rdft.forward (Rdft.of_size n1) (Array.map (fun s -> s.(component)) w.slices.(m)) ~re ~im;
    w.coeffs.(idx) <-
      Array.init n1 (fun j ->
          if j = 0 then re.(0) /. float_of_int n1
          else 2. /. float_of_int n1 *. if j land 1 = 1 then re.((j + 1) / 2) else im.(j / 2))
  end;
  w.coeffs.(idx)

(* xhat at [t1] and at [r] in knot interval [i]: both slices' series at
   [t1], harmonics by rotation, blended linearly in t2 *)
let[@inline] blend w ~component i r t1 =
  if component < 0 || component >= w.dim then invalid_arg "Warp: component out of range";
  let a = coefficients w i component in
  let b = coefficients w ((i + 1) mod Array.length w.slices) component in
  let theta = 2. *. Float.pi *. (t1 -. Float.floor t1) in
  let c1 = cos theta and s1 = sin theta in
  let xa = ref a.(0) and xb = ref b.(0) and c = ref 1. and s = ref 0. in
  for k = 1 to Array.length a / 2 do
    let ck = (!c *. c1) -. (!s *. s1) in
    s := (!s *. c1) +. (!c *. s1);
    c := ck;
    xa := !xa +. ((a.((2 * k) - 1) *. ck) -. (a.(2 * k) *. !s));
    xb := !xb +. ((b.((2 * k) - 1) *. ck) -. (b.(2 * k) *. !s))
  done;
  let frac = (r -. w.knots.(i)) /. (w.knots.(i + 1) -. w.knots.(i)) in
  let frac = if frac < 0. then 0. else if frac > 1. then 1. else frac in
  !xa +. (frac *. (!xb -. !xa))

let eval w ~component t =
  let k = periods w t in
  let r = t -. (k *. w.period) in
  let i = locate w.knots r in
  blend w ~component i r ((k *. w.phi.(Array.length w.phi - 1)) +. phi_in w i r)

let xhat w ~component ~t1 t2 =
  let r = t2 -. (periods w t2 *. w.period) in
  blend w ~component (locate w.knots r) r t1
