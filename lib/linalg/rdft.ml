(* cs.((l - 1) * half + k - 1) = cos (2 pi k l / n) for k, l = 1..half,
   and sn the same with sin: symmetric in k and l, so one table serves
   both directions. *)
type t = { n : int; half : int; inv_n : float; cs : float array; sn : float array }

let build n =
  let half = n / 2 in
  let angle m = 2. *. Float.pi *. float_of_int m /. float_of_int n in
  let root_re = Array.init n (fun m -> cos (angle m)) in
  let root_im = Array.init n (fun m -> sin (angle m)) in
  let cs = Array.make (half * half) 0. and sn = Array.make (half * half) 0. in
  for l = 1 to half do
    for k = 1 to half do
      let m = k * l mod n in
      cs.(((l - 1) * half) + k - 1) <- root_re.(m);
      sn.(((l - 1) * half) + k - 1) <- root_im.(m)
    done
  done;
  { n; half; inv_n = 1. /. float_of_int n; cs; sn }

(* The last [memo_size] tables built, newest first.  Tables are
   immutable, so a lost race only rebuilds one. *)
let memo_size = 8
let memo : t list Atomic.t = Atomic.make []

let of_size n =
  if n < 1 || n mod 2 = 0 then
    invalid_arg (Printf.sprintf "Rdft.of_size: length %d must be odd" n);
  match List.find_opt (fun t -> t.n = n) (Atomic.get memo) with
  | Some t -> t
  | None ->
    let t = build n in
    Atomic.set memo (t :: List.filteri (fun i _ -> i < memo_size - 1) (Atomic.get memo));
    t

(* With a_k = x_k + x_{n-k} and b_k = x_k - x_{n-k}:
   Re X_l = x_0 + sum_k a_k cos (2 pi k l / n) and
   Im X_l = - sum_k b_k sin (2 pi k l / n), k = 1..half.  The fold
   stores a_k at k and b_k at n - k. *)
let forward t x ~re ~im =
  let n = t.n and h = t.half in
  if Array.length x <> n || Array.length re <> h + 1 || Array.length im <> h + 1 then
    invalid_arg "Rdft.forward: length mismatch";
  let x0 = x.(0) in
  let s = ref x0 in
  for k = 1 to h do
    let p = x.(k) and q = x.(n - k) in
    x.(k) <- p +. q;
    x.(n - k) <- p -. q;
    s := !s +. (p +. q)
  done;
  re.(0) <- !s;
  im.(0) <- 0.;
  let cs = t.cs and sn = t.sn in
  for l = 1 to h do
    let row = ((l - 1) * h) - 1 in
    (* two accumulators per sum: the dot products are bound by the
       latency of the adds, not by the loads *)
    let sr0 = ref 0. and sr1 = ref 0. and si0 = ref 0. and si1 = ref 0. in
    for p = 0 to (h / 2) - 1 do
      let k = (2 * p) + 1 in
      sr0 := !sr0 +. (Array.unsafe_get x k *. Array.unsafe_get cs (row + k));
      si0 := !si0 +. (Array.unsafe_get x (n - k) *. Array.unsafe_get sn (row + k));
      sr1 := !sr1 +. (Array.unsafe_get x (k + 1) *. Array.unsafe_get cs (row + k + 1));
      si1 := !si1 +. (Array.unsafe_get x (n - k - 1) *. Array.unsafe_get sn (row + k + 1))
    done;
    if h land 1 = 1 then begin
      sr0 := !sr0 +. (x.(h) *. cs.(row + h));
      si0 := !si0 +. (x.(n - h) *. sn.(row + h))
    end;
    re.(l) <- x0 +. (!sr0 +. !sr1);
    im.(l) <- -.(!si0 +. !si1)
  done

(* x_k = (X_0 + 2 sum_l (Re X_l cos - Im X_l sin)) / n, and x_{n-k}
   the same with + sin, l = 1..half. *)
let inverse t ~re ~im x =
  let n = t.n and h = t.half in
  if Array.length x <> n || Array.length re <> h + 1 || Array.length im <> h + 1 then
    invalid_arg "Rdft.inverse: length mismatch";
  let y0 = re.(0) in
  let s = ref 0. in
  for l = 1 to h do
    s := !s +. re.(l)
  done;
  x.(0) <- t.inv_n *. (y0 +. (2. *. !s));
  let cs = t.cs and sn = t.sn in
  for k = 1 to h do
    let row = ((k - 1) * h) - 1 in
    let p0 = ref 0. and p1 = ref 0. and q0 = ref 0. and q1 = ref 0. in
    for m = 0 to (h / 2) - 1 do
      let l = (2 * m) + 1 in
      p0 := !p0 +. (Array.unsafe_get re l *. Array.unsafe_get cs (row + l));
      q0 := !q0 +. (Array.unsafe_get im l *. Array.unsafe_get sn (row + l));
      p1 := !p1 +. (Array.unsafe_get re (l + 1) *. Array.unsafe_get cs (row + l + 1));
      q1 := !q1 +. (Array.unsafe_get im (l + 1) *. Array.unsafe_get sn (row + l + 1))
    done;
    if h land 1 = 1 then begin
      p0 := !p0 +. (re.(h) *. cs.(row + h));
      q0 := !q0 +. (im.(h) *. sn.(row + h))
    end;
    let p = !p0 +. !p1 and q = !q0 +. !q1 in
    x.(k) <- t.inv_n *. (y0 +. (2. *. (p -. q)));
    x.(n - k) <- t.inv_n *. (y0 +. (2. *. (p +. q)))
  done
