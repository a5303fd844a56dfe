open Linalg

let sqrt_eps = sqrt epsilon_float
let cbrt_eps = Float.pow epsilon_float (1. /. 3.)

let step ?typical x j base =
  let typ = match typical with Some t -> Float.abs t.(j) | None -> 1. in
  let h = base *. Float.max (Float.abs x.(j)) typ in
  (* round h so that x + h - x is exactly representable *)
  let xh = x.(j) +. h in
  xh -. x.(j)

(* Columns are independent: column [j] perturbs only slot [j] of its
   own [xp] copy and writes only column [j] of the output, so chunks
   of columns run on the domain pool with one [xp] per worker.  Each
   column's arithmetic (step choice, evaluation point, difference) is
   the same in every chunking, so the Jacobian is bitwise identical
   for every job count.  [?parallel] is opt-in: [f] must be re-entrant
   (pure, no shared scratch, no Obs telemetry). *)
let jacobian_into ?(parallel = false) ?typical ?f0 f x jac =
  let n = Array.length x in
  let f0 = match f0 with Some v -> v | None -> f x in
  let m = Array.length f0 in
  if Mat.rows jac <> m || (m > 0 && Mat.cols jac <> n) then
    invalid_arg "Fdjac.jacobian_into: destination shape differs from m x n";
  let columns xp lo hi =
    for j = lo to hi - 1 do
      let h = step ?typical x j sqrt_eps in
      xp.(j) <- x.(j) +. h;
      let fj = f xp in
      xp.(j) <- x.(j);
      for i = 0 to m - 1 do
        jac.(i).(j) <- (fj.(i) -. f0.(i)) /. h
      done
    done
  in
  if parallel then
    Par.Pool.parallel_chunks n (fun ~worker:_ ~lo ~hi -> columns (Array.copy x) lo hi)
  else columns (Array.copy x) 0 n

let jacobian ?parallel ?typical ?f0 f x =
  let f0 = match f0 with Some v -> v | None -> f x in
  let jac = Mat.zeros (Array.length f0) (Array.length x) in
  jacobian_into ?parallel ?typical ~f0 f x jac;
  jac

let jacobian_central ?(parallel = false) ?typical f x =
  let n = Array.length x in
  let cols = Array.make n [||] in
  let columns xp lo hi =
    for j = lo to hi - 1 do
      let h = step ?typical x j cbrt_eps in
      xp.(j) <- x.(j) +. h;
      let fp = f xp in
      xp.(j) <- x.(j) -. h;
      let fm = f xp in
      xp.(j) <- x.(j);
      cols.(j) <- Array.map2 (fun a b -> (a -. b) /. (2. *. h)) fp fm
    done
  in
  if parallel then
    Par.Pool.parallel_chunks n (fun ~worker:_ ~lo ~hi -> columns (Array.copy x) lo hi)
  else columns (Array.copy x) 0 n;
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
