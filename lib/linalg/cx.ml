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
  type t = { re : float array array; im : float array array; perm : int array }

  exception Singular of int

  let c_factor = Wampde_obs.Metrics.counter "lu.factor_complex"
  let h_dim = Wampde_obs.Metrics.histogram "lu.dim_complex"

  let note_factor ~n =
    Wampde_obs.Metrics.incr c_factor;
    Wampde_obs.Metrics.observe h_dim (float_of_int n)

  (* the factorization reads and writes every row up to column n-1
     unchecked *)
  let square re ~im =
    let n = Array.length re in
    if Array.length im <> n then invalid_arg "Cx.Clu.factor: matrix not square";
    for i = 0 to n - 1 do
      if Array.length re.(i) <> n || Array.length im.(i) <> n then
        invalid_arg "Cx.Clu.factor: matrix not square"
    done;
    n

  (* LU with partial (modulus) pivoting, in place on split re/im rows:
     row swaps exchange the row arrays of [re] and [im] together.  Each
     operation spells out the [Stdlib.Complex] one it stands for (the
     pivot modulus is [Complex.norm], the multiplier [Complex.div]'s
     Smith division, the update [Complex.sub] of a [Complex.mul]), and
     a zero multiplier skips its row, so the factors are bitwise those
     of the boxed loop, with no [Complex.t] allocated. *)
  let factor_into { re; im; perm } =
    let n = square re ~im in
    if Array.length perm <> n then invalid_arg "Cx.Clu.factor: perm length mismatch";
    for i = 0 to n - 1 do
      perm.(i) <- i
    done;
    for k = 0 to n - 1 do
      let p = ref k and best = ref (Float.hypot re.(k).(k) im.(k).(k)) in
      for i = k + 1 to n - 1 do
        let a = Float.hypot re.(i).(k) im.(i).(k) in
        if a > !best then begin
          p := i;
          best := a
        end
      done;
      let p = !p in
      if p <> k then begin
        let t = re.(k) in
        re.(k) <- re.(p);
        re.(p) <- t;
        let t = im.(k) in
        im.(k) <- im.(p);
        im.(p) <- t;
        let t = perm.(k) in
        perm.(k) <- perm.(p);
        perm.(p) <- t
      end;
      let rk = re.(k) and ik = im.(k) in
      let dr = rk.(k) and di = ik.(k) in
      if Float.hypot dr di = 0. then raise (Singular k);
      for i = k + 1 to n - 1 do
        let ri = re.(i) and ii = im.(i) in
        let xr = ri.(k) and xi = ii.(k) in
        let mr = ref 0. and mi = ref 0. in
        if Float.abs dr >= Float.abs di then begin
          let r = di /. dr in
          let d = dr +. (r *. di) in
          mr := (xr +. (r *. xi)) /. d;
          mi := (xi -. (r *. xr)) /. d
        end
        else begin
          let r = dr /. di in
          let d = di +. (r *. dr) in
          mr := ((r *. xr) +. xi) /. d;
          mi := ((r *. xi) -. xr) /. d
        end;
        let mr = !mr and mi = !mi in
        ri.(k) <- mr;
        ii.(k) <- mi;
        if mr <> 0. || mi <> 0. then
          for j = k + 1 to n - 1 do
            let ur = Array.unsafe_get rk j and ui = Array.unsafe_get ik j in
            Array.unsafe_set ri j (Array.unsafe_get ri j -. ((mr *. ur) -. (mi *. ui)));
            Array.unsafe_set ii j (Array.unsafe_get ii j -. ((mr *. ui) +. (mi *. ur)))
          done
      done
    done

  let factor a =
    let n = Array.length a in
    let f =
      {
        re = Array.map (Array.map (fun z -> z.Complex.re)) a;
        im = Array.map (Array.map (fun z -> z.Complex.im)) a;
        perm = Array.make n 0;
      }
    in
    note_factor ~n;
    factor_into f;
    f

  (* Substitution on split re/im arrays: each update spells out
     [Complex.sub s (Complex.mul l x)] and the final [Complex.div]
     (Smith's algorithm) term by term, so the result is bitwise that of
     the boxed form without allocating a [Complex.t] per operation. *)
  let solve_into { re; im; perm } ~b_re ~b_im ~x_re ~x_im =
    let n = Array.length re in
    if
      Array.length b_re <> n || Array.length b_im <> n || Array.length x_re <> n
      || Array.length x_im <> n
    then invalid_arg "Cx.Clu.solve_into: dimension mismatch";
    for i = 0 to n - 1 do
      x_re.(i) <- b_re.(perm.(i));
      x_im.(i) <- b_im.(perm.(i))
    done;
    for i = 1 to n - 1 do
      let lr = re.(i) and li = im.(i) in
      let sr = ref x_re.(i) and si = ref x_im.(i) in
      for j = 0 to i - 1 do
        let ar = Array.unsafe_get lr j and ai = Array.unsafe_get li j in
        let xr = Array.unsafe_get x_re j and xi = Array.unsafe_get x_im j in
        sr := !sr -. ((ar *. xr) -. (ai *. xi));
        si := !si -. ((ar *. xi) +. (ai *. xr))
      done;
      x_re.(i) <- !sr;
      x_im.(i) <- !si
    done;
    for i = n - 1 downto 0 do
      let ur = re.(i) and ui = im.(i) in
      let sr = ref x_re.(i) and si = ref x_im.(i) in
      for j = i + 1 to n - 1 do
        let ar = Array.unsafe_get ur j and ai = Array.unsafe_get ui j in
        let xr = Array.unsafe_get x_re j and xi = Array.unsafe_get x_im j in
        sr := !sr -. ((ar *. xr) -. (ai *. xi));
        si := !si -. ((ar *. xi) +. (ai *. xr))
      done;
      let dr = ur.(i) and di = ui.(i) in
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
    let n = Array.length f.re in
    if Array.length b <> n then invalid_arg "Cx.Clu.solve: dimension mismatch";
    let x_re = Array.make n 0. and x_im = Array.make n 0. in
    solve_into f ~b_re:(Array.map re b) ~b_im:(Array.map im b) ~x_re ~x_im;
    Array.init n (fun i -> cx x_re.(i) x_im.(i))
end
