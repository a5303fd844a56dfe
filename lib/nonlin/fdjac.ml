open Linalg

let sqrt_eps = sqrt epsilon_float
let cbrt_eps = Float.pow epsilon_float (1. /. 3.)

let step x j base =
  let h = base *. Float.max (Float.abs x.(j)) 1. in
  (* round h so that x + h - x is exactly representable *)
  let xh = x.(j) +. h in
  xh -. x.(j)

let jacobian_into ?f0 f x jac =
  let n = Array.length x in
  let f0 = match f0 with Some v -> v | None -> f x in
  let m = Array.length f0 in
  if Mat.rows jac <> m || (m > 0 && Mat.cols jac <> n) then
    invalid_arg "Fdjac.jacobian_into: destination shape differs from m x n";
  let xp = Array.copy x in
  for j = 0 to n - 1 do
    let h = step x j sqrt_eps in
    xp.(j) <- x.(j) +. h;
    let fj = f xp in
    xp.(j) <- x.(j);
    for i = 0 to m - 1 do
      jac.(i).(j) <- (fj.(i) -. f0.(i)) /. h
    done
  done

let jacobian ?f0 f x =
  let f0 = match f0 with Some v -> v | None -> f x in
  let jac = Mat.zeros (Array.length f0) (Array.length x) in
  jacobian_into ~f0 f x jac;
  jac

let jacobian_central f x =
  let n = Array.length x in
  let xp = Array.copy x in
  let cols =
    Array.init n (fun j ->
        let h = step x j cbrt_eps in
        xp.(j) <- x.(j) +. h;
        let fp = f xp in
        xp.(j) <- x.(j) -. h;
        let fm = f xp in
        xp.(j) <- x.(j);
        Array.map2 (fun a b -> (a -. b) /. (2. *. h)) fp fm)
  in
  let m = Array.length cols.(0) in
  Mat.init m n (fun i j -> cols.(j).(i))

let directional ?f0 f x v =
  let vnorm = Vec.norm_inf v in
  let f0 = match f0 with Some v -> v | None -> f x in
  if vnorm = 0. then Array.make (Array.length f0) 0.
  else begin
    let h = sqrt_eps *. Float.max 1. (Vec.norm_inf x) /. vnorm in
    let xp = Array.mapi (fun i xi -> xi +. (h *. v.(i))) x in
    let fp = f xp in
    Array.map2 (fun a b -> (a -. b) /. h) fp f0
  end
