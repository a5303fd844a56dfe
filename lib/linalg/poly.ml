let eval_complex c z =
  let s = ref Complex.zero in
  for k = Array.length c - 1 downto 0 do
    s := Complex.add (Complex.mul !s z) (Cx.cx c.(k) 0.)
  done;
  !s

let strip c =
  let n = ref (Array.length c) in
  while !n > 1 && c.(!n - 1) = 0. do
    decr n
  done;
  Array.sub c 0 !n

exception No_convergence of int

let () =
  Printexc.register_printer (function
    | No_convergence n ->
      Some (Printf.sprintf "Poly.No_convergence: Durand-Kerner did not converge in %d iterations" n)
    | _ -> None)

(* |p(z)| may stop at the rounding error of Horner's rule, about
   eps sum_k |c_k| |z|^k: a root there is as accurate as the
   coefficients allow.  A multiple root is met only to about
   eps^(1/m), where Durand-Kerner's correction, which converges only
   linearly there, keeps moving by more than [tol]. *)
let at_rounding_floor monic z =
  let r = Complex.norm z in
  let bound = ref 0. in
  for k = Array.length monic - 1 downto 0 do
    bound := (!bound *. r) +. Float.abs monic.(k)
  done;
  Complex.norm (eval_complex monic z) <= 8. *. epsilon_float *. !bound

(* Durand-Kerner: iterate z_i <- z_i - p(z_i) / prod_{j<>i} (z_i - z_j)
   on the monic normalization of p, starting from points on a
   non-symmetric circle, until every correction is below [tol] or
   every root sits at the rounding floor of p. *)
let roots ?(max_iterations = 500) ?(tol = 1e-12) c =
  let c = strip c in
  let degree = Array.length c - 1 in
  if degree < 0 || (degree = 0 && c.(0) = 0.) then invalid_arg "Poly.roots: zero polynomial";
  if degree = 0 then [||]
  else begin
    let lead = c.(degree) in
    let monic = Array.map (fun x -> x /. lead) c in
    (* radius bound: 1 + max |c_k| *)
    let radius =
      1. +. Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0. monic
    in
    let z =
      Array.init degree (fun i ->
          Cx.polar (radius *. 0.5)
            ((2. *. Float.pi *. float_of_int i /. float_of_int degree) +. 0.4))
    in
    let converged = ref false in
    let iter = ref 0 in
    while (not !converged) && !iter < max_iterations do
      incr iter;
      let worst = ref 0. in
      for i = 0 to degree - 1 do
        let p = eval_complex monic z.(i) in
        let denom = ref Complex.one in
        for j = 0 to degree - 1 do
          if j <> i then denom := Complex.mul !denom (Complex.sub z.(i) z.(j))
        done;
        let delta =
          if Complex.norm !denom < 1e-300 then Cx.cx 1e-8 1e-8
          else Complex.div p !denom
        in
        z.(i) <- Complex.sub z.(i) delta;
        worst := Float.max !worst (Complex.norm delta)
      done;
      if !worst <= tol *. Float.max 1. radius || Array.for_all (at_rounding_floor monic) z then
        converged := true
    done;
    if not !converged then raise (No_convergence !iter);
    (* polish: snap near-real roots to the real axis *)
    Array.map
      (fun zi ->
        if Float.abs (Cx.im zi) < 1e-9 *. Float.max 1. (Float.abs (Cx.re zi)) then
          Cx.cx (Cx.re zi) 0.
        else zi)
      z
  end

let from_roots rs =
  let acc = ref [| Complex.one |] in
  Array.iter
    (fun r ->
      let prev = !acc in
      let n = Array.length prev in
      let next = Array.make (n + 1) Complex.zero in
      for k = 0 to n - 1 do
        (* multiply by (x - r) *)
        next.(k + 1) <- Complex.add next.(k + 1) prev.(k);
        next.(k) <- Complex.sub next.(k) (Complex.mul r prev.(k))
      done;
      acc := next)
    rs;
  Array.map Cx.re !acc
