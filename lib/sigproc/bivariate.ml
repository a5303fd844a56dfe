open Linalg

type t = { p1 : float; p2 : float; grid : Mat.t }

let sample ~f ~p1 ~p2 ~n1 ~n2 =
  if n1 < 2 || n2 < 2 then invalid_arg "Bivariate.sample: grid too small";
  let grid =
    Mat.init n1 n2 (fun i j ->
        f (p1 *. float_of_int i /. float_of_int n1) (p2 *. float_of_int j /. float_of_int n2))
  in
  { p1; p2; grid }

let wrap_frac x n =
  (* fractional index in [0, n) *)
  let r = Float.rem x (float_of_int n) in
  if r < 0. then r +. float_of_int n else r

let eval b t1 t2 =
  let n1 = Mat.rows b.grid and n2 = Mat.cols b.grid in
  let fi = wrap_frac (t1 /. b.p1 *. float_of_int n1) n1 in
  let fj = wrap_frac (t2 /. b.p2 *. float_of_int n2) n2 in
  let i0 = int_of_float fi and j0 = int_of_float fj in
  let di = fi -. float_of_int i0 and dj = fj -. float_of_int j0 in
  let i1 = (i0 + 1) mod n1 and j1 = (j0 + 1) mod n2 in
  let g = b.grid in
  ((1. -. di) *. (1. -. dj) *. g.(i0).(j0))
  +. (di *. (1. -. dj) *. g.(i1).(j0))
  +. ((1. -. di) *. dj *. g.(i0).(j1))
  +. (di *. dj *. g.(i1).(j1))

let diagonal b t = eval b t t
let warped_diagonal b ~phi t = eval b (phi t) t

let sawtooth_path ~p1 ~p2 ~t_max n =
  Array.init n (fun k ->
      let t = t_max *. float_of_int k /. float_of_int (Int.max 1 (n - 1)) in
      (Float.rem t p1, Float.rem t p2))

let sample_count b = Mat.rows b.grid * Mat.cols b.grid

let undulation_count b =
  let n1 = Mat.rows b.grid and n2 = Mat.cols b.grid in
  let count = ref 0 in
  for i = 0 to n1 - 1 do
    for j = 0 to n2 - 1 do
      let d0 = b.grid.(i).((j + 1) mod n2) -. b.grid.(i).(j) in
      let d1 = b.grid.(i).((j + 2) mod n2) -. b.grid.(i).((j + 1) mod n2) in
      if d0 *. d1 < 0. then incr count
    done
  done;
  !count
