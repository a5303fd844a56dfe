type c = Complex.t

let cx re im : c = { Complex.re; im }
let re (z : c) = z.Complex.re
let im (z : c) = z.Complex.im
let polar r theta = Complex.polar r theta
let cis theta = Complex.polar 1. theta
let scale a (z : c) = cx (a *. z.Complex.re) (a *. z.Complex.im)

module Cvec = struct
  type t = c array

  let zeros n = Array.make n Complex.zero
  let init = Array.init
  let of_real v = Array.map (fun x -> cx x 0.) v
  let norm_inf v = Array.fold_left (fun acc z -> Float.max acc (Complex.norm z)) 0. v
end

module Cmat = struct
  type t = c array array

  let zeros r cnum = Array.init r (fun _ -> Array.make cnum Complex.zero)
  let init r cnum f = Array.init r (fun i -> Array.init cnum (fun j -> f i j))
end

module Clu = struct
  type t = { lu : c array array; perm : int array }

  exception Singular of int

  let c_factor = Wampde_obs.Metrics.counter "lu.factor_complex"
  let h_dim = Wampde_obs.Metrics.histogram "lu.dim_complex"

  let note_factor ~n =
    Wampde_obs.Metrics.incr c_factor;
    Wampde_obs.Metrics.observe h_dim (float_of_int n);
    if Wampde_obs.Events.active () then Wampde_obs.Events.emit (Wampde_obs.Events.Lu_factor { n })

  let square a =
    let n = Array.length a in
    if n > 0 && Array.length a.(0) <> n then invalid_arg "Cx.Clu.factor: matrix not square";
    n

  let factor_quiet a =
    let n = square a in
    let lu = Array.map Array.copy a in
    let perm = Array.init n (fun i -> i) in
    for k = 0 to n - 1 do
      let pivot = ref k in
      for i = k + 1 to n - 1 do
        if Complex.norm lu.(i).(k) > Complex.norm lu.(!pivot).(k) then pivot := i
      done;
      if !pivot <> k then begin
        let tmp = lu.(k) in
        lu.(k) <- lu.(!pivot);
        lu.(!pivot) <- tmp;
        let tp = perm.(k) in
        perm.(k) <- perm.(!pivot);
        perm.(!pivot) <- tp
      end;
      let pkk = lu.(k).(k) in
      if Complex.norm pkk = 0. then raise (Singular k);
      for i = k + 1 to n - 1 do
        let m = Complex.div lu.(i).(k) pkk in
        lu.(i).(k) <- m;
        if m <> Complex.zero then
          for j = k + 1 to n - 1 do
            lu.(i).(j) <- Complex.sub lu.(i).(j) (Complex.mul m lu.(k).(j))
          done
      done
    done;
    { lu; perm }

  let factor a =
    note_factor ~n:(square a);
    factor_quiet a

  (* Substitution on split re/im arrays: each update spells out
     [Complex.sub s (Complex.mul l x)] and the final [Complex.div]
     (Smith's algorithm) term by term, so the result is bitwise that of
     the boxed form without allocating a [Complex.t] per operation. *)
  let solve_into { lu; perm } ~b_re ~b_im ~x_re ~x_im =
    let n = Array.length lu in
    if
      Array.length b_re <> n || Array.length b_im <> n || Array.length x_re <> n
      || Array.length x_im <> n
    then invalid_arg "Cx.Clu.solve_into: dimension mismatch";
    for i = 0 to n - 1 do
      x_re.(i) <- b_re.(perm.(i));
      x_im.(i) <- b_im.(perm.(i))
    done;
    for i = 1 to n - 1 do
      let row = lu.(i) in
      let sr = ref x_re.(i) and si = ref x_im.(i) in
      for j = 0 to i - 1 do
        let l = row.(j) in
        let xr = x_re.(j) and xi = x_im.(j) in
        sr := !sr -. ((l.Complex.re *. xr) -. (l.Complex.im *. xi));
        si := !si -. ((l.Complex.re *. xi) +. (l.Complex.im *. xr))
      done;
      x_re.(i) <- !sr;
      x_im.(i) <- !si
    done;
    for i = n - 1 downto 0 do
      let row = lu.(i) in
      let sr = ref x_re.(i) and si = ref x_im.(i) in
      for j = i + 1 to n - 1 do
        let u = row.(j) in
        let xr = x_re.(j) and xi = x_im.(j) in
        sr := !sr -. ((u.Complex.re *. xr) -. (u.Complex.im *. xi));
        si := !si -. ((u.Complex.re *. xi) +. (u.Complex.im *. xr))
      done;
      let dr = row.(i).Complex.re and di = row.(i).Complex.im in
      if Float.abs dr >= Float.abs di then begin
        let r = di /. dr in
        let d = dr +. (r *. di) in
        x_re.(i) <- (!sr +. (r *. !si)) /. d;
        x_im.(i) <- (!si -. (r *. !sr)) /. d
      end
      else begin
        let r = dr /. di in
        let d = di +. (r *. dr) in
        x_re.(i) <- ((r *. !sr) +. !si) /. d;
        x_im.(i) <- ((r *. !si) -. !sr) /. d
      end
    done

  let solve f b =
    let n = Array.length f.lu in
    if Array.length b <> n then invalid_arg "Cx.Clu.solve: dimension mismatch";
    let x_re = Array.make n 0. and x_im = Array.make n 0. in
    solve_into f ~b_re:(Array.map re b) ~b_im:(Array.map im b) ~x_re ~x_im;
    Array.init n (fun i -> cx x_re.(i) x_im.(i))
end
