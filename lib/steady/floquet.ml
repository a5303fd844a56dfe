open Linalg

type orbit = { omega : float; grid : Vec.t array }

type report = {
  monodromy : Mat.t;
  multipliers : Cx.Cvec.t;
  trivial_index : int;
  largest_nontrivial : float;
  stable : bool;
}

(* Step k of the trapezoidal transient solves
   q(x_(k+1)) - q(x_k) + h/2 (f(t_(k+1), x_(k+1)) + f(t_k, x_k)) = 0,
   so its tangent is dx_(k+1)/dx_k = J_(k+1)^-1 (C_k - h/2 G_k) with
   J_(k+1) = C_(k+1) + h/2 G_(k+1), the step's Newton matrix at the
   accepted state; the monodromy is the product of the tangents along
   one period.  Each step is one circuit pass for C and G, one n x n
   product and one LU factorization with n solves. *)
let monodromy dae ~period ~steps_per_period x0 =
  let n = dae.Dae.dim in
  let h = period /. float_of_int steps_per_period in
  let { Transient.times; states } =
    Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:period ~h x0
  in
  let c = Mat.zeros n n and g = Mat.zeros n n in
  let eval k = dae.Dae.eval_into ~t:times.(k) states.(k) ~q:[||] ~f:[||] ~c ~g in
  let explicit = Mat.zeros n n and jac = Mat.zeros n n and perm = Array.make n 0 in
  let m = ref (Mat.identity n) and next = ref (Mat.zeros n n) in
  let column = Array.make n 0. and solved = Array.make n 0. in
  eval 0;
  for k = 0 to Array.length times - 2 do
    let h = times.(k + 1) -. times.(k) in
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        explicit.(i).(j) <- c.(i).(j) -. (0.5 *. h *. g.(i).(j))
      done
    done;
    eval (k + 1);
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        jac.(i).(j) <- c.(i).(j) +. (0.5 *. h *. g.(i).(j))
      done
    done;
    let lu = Lu.factor_into jac ~perm in
    let m' = !m and next' = !next in
    for j = 0 to n - 1 do
      for i = 0 to n - 1 do
        let s = ref 0. in
        for l = 0 to n - 1 do
          s := !s +. (explicit.(i).(l) *. m'.(l).(j))
        done;
        column.(i) <- !s
      done;
      Lu.solve_into lu column solved;
      for i = 0 to n - 1 do
        next'.(i).(j) <- solved.(i)
      done
    done;
    m := next';
    next := m'
  done;
  !m

let analyze dae ~period ?(steps_per_period = 400) x0 =
  let m = monodromy dae ~period ~steps_per_period x0 in
  let multipliers = Eig.eigenvalues m in
  let trivial_index = ref 0 in
  Array.iteri
    (fun i z ->
      if
        Complex.norm (Complex.sub z Complex.one)
        < Complex.norm (Complex.sub multipliers.(!trivial_index) Complex.one)
      then trivial_index := i)
    multipliers;
  let largest_nontrivial =
    let worst = ref 0. in
    Array.iteri
      (fun i z -> if i <> !trivial_index then worst := Float.max !worst (Complex.norm z))
      multipliers;
    !worst
  in
  {
    monodromy = m;
    multipliers;
    trivial_index = !trivial_index;
    largest_nontrivial;
    stable = largest_nontrivial < 1. -. 1e-6;
  }

let analyze_orbit dae ?steps_per_period orbit =
  analyze dae ~period:(1. /. orbit.omega) ?steps_per_period orbit.grid.(0)
