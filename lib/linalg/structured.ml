module Obs = Wampde_obs

let c_builds = Obs.Metrics.counter "gmres.precond.builds"
let c_applies = Obs.Metrics.counter "gmres.precond.applies"
let c_block_factors = Obs.Metrics.counter "gmres.precond.block_factors"
let c_fallbacks = Obs.Metrics.counter "gmres.precond.fallbacks"

let fallback_to_dense () = Obs.Metrics.incr c_fallbacks

type strategy = Dense | Krylov | Auto of int

let default_threshold = 160
let auto = Auto default_threshold

let use_krylov strategy ~dim =
  match strategy with Dense -> false | Krylov -> true | Auto threshold -> dim >= threshold

(* ------------------------------------------------------------------ *)
(* Structured collocation operator                                     *)
(* ------------------------------------------------------------------ *)

type op = {
  n : int;
  n1 : int;
  alpha : float;
  d : Mat.t;
  c_blocks : Mat.t array;
  b_blocks : Mat.t array;
  cu : Vec.t;  (* scratch: blockdiag(C) v, reused across applies *)
}

let make_op ~alpha ~d ~c_blocks ~b_blocks =
  let n1 = Array.length c_blocks in
  if n1 = 0 || Array.length b_blocks <> n1 then
    invalid_arg "Structured.make_op: need one C and one B block per collocation point";
  let n = Mat.rows c_blocks.(0) in
  if Mat.rows d <> n1 || Mat.cols d <> n1 then
    invalid_arg "Structured.make_op: differentiation matrix size mismatch";
  { n; n1; alpha; d; c_blocks; b_blocks; cu = Array.make (n1 * n) 0. }

let refill_op op ~alpha = { op with alpha }

let dim op = op.n1 * op.n

let block_mul_into blocks ~src ~dst =
  let n1 = Array.length blocks in
  let n = Mat.rows blocks.(0) in
  for k = 0 to n1 - 1 do
    let bk = blocks.(k) in
    let base = k * n in
    for i = 0 to n - 1 do
      let row = bk.(i) in
      let s = ref 0. in
      for l = 0 to n - 1 do
        s := !s +. (row.(l) *. src.(base + l))
      done;
      dst.(base + i) <- !s
    done
  done

(* out_j = alpha * sum_k d_jk (C_k v_k) + B_j v_j; only the first
   [n1 * n] entries of [v] and [out] are touched, so bordered vectors
   can be passed directly.  The output rows are independent (each
   chunk writes a disjoint slice of [out] and only reads [v]/[cu]), so
   the block rows run on the pool; per-row sums stay sequential, so
   the result does not depend on the job count.  A chunk first writes
   its rows of (D (x) I) cu into [out], then scales and adds B_j v_j
   in place. *)
let apply_into op v out =
  let n = op.n in
  block_mul_into op.c_blocks ~src:v ~dst:op.cu;
  Par.Pool.parallel_chunks op.n1 (fun ~worker:_ ~lo ~hi ->
      Mat.kron_eye_into op.d ~n ~lo ~hi op.cu out;
      for j = lo to hi - 1 do
        let bj = op.b_blocks.(j) in
        let base = j * n in
        for i = 0 to n - 1 do
          let row = bj.(i) in
          let t = ref (op.alpha *. out.(base + i)) in
          for l = 0 to n - 1 do
            t := !t +. (row.(l) *. v.(base + l))
          done;
          out.(base + i) <- !t
        done
      done)

let apply_bordered_into op ~border_col ~border_row v out =
  apply_into op v out;
  let nd = dim op in
  let zeta = v.(nd) in
  if zeta <> 0. then
    for i = 0 to nd - 1 do
      out.(i) <- out.(i) +. (zeta *. border_col.(i))
    done;
  let s = ref 0. in
  for i = 0 to nd - 1 do
    s := !s +. (border_row.(i) *. v.(i))
  done;
  out.(nd) <- !s

(* Dense assembly of the block part into the square of [jac] at
   (off, off): row i of block row j is fetched once and filled block by
   block, alpha d_jk (C_k)_i, then B_j's row i is added on the diagonal
   block.  The fill runs unchecked once the sizes it reads and writes
   are checked: with n = 4, a bounds check on every entry costs about
   a third of the call. *)
let dense_into ?(off = 0) op jac =
  let n = op.n and n1 = op.n1 in
  let nd = n1 * n in
  if off < 0 then invalid_arg "Structured.dense_into: negative offset";
  let too_small () = invalid_arg "Structured.dense_into: jac or a C block too small" in
  if Array.length jac < off + nd then too_small ();
  for r = off to off + nd - 1 do
    if Array.length jac.(r) < off + nd then too_small ()
  done;
  for k = 0 to n1 - 1 do
    let ck = op.c_blocks.(k) in
    if Array.length ck < n then too_small ();
    for i = 0 to n - 1 do
      if Array.length ck.(i) < n then too_small ()
    done
  done;
  for j = 0 to n1 - 1 do
    let dj = op.d.(j) and bj = op.b_blocks.(j) in
    for i = 0 to n - 1 do
      let row = Array.unsafe_get jac (off + (j * n) + i) in
      for k = 0 to n1 - 1 do
        let scale = op.alpha *. dj.(k) in
        let cki = Array.unsafe_get (Array.unsafe_get op.c_blocks k) i and base = off + (k * n) in
        for l = 0 to n - 1 do
          Array.unsafe_set row (base + l) (scale *. Array.unsafe_get cki l)
        done
      done;
      let bji = bj.(i) and base = off + (j * n) in
      for l = 0 to n - 1 do
        row.(base + l) <- row.(base + l) +. bji.(l)
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Slice-coupled averaged-Jacobian preconditioner                      *)
(* ------------------------------------------------------------------ *)

type precond = {
  pn : int;
  pn1 : int;
  pn2 : int;
  half : int;  (* n1 / 2: wavenumbers 0..half are represented explicitly *)
  big : int;  (* n2 * n: the unknowns of one wavenumber's block *)
  rdft : Rdft.t;
  (* wavenumber k's block, big x big, row (m n + i) for slice m and
     component i, factored in place *)
  blocks : Cx.Clu.t array;
  (* build scratch: each slice's blocks averaged over t1, and D's
     eigenvalues at wavenumbers 0..half *)
  cbar : Mat.t array;
  bbar : Mat.t array;
  lambda_re : Vec.t;
  lambda_im : Vec.t;
  (* apply scratch: one (slice, component)'s t1 samples, the lower-half
     spectra of every (slice, component) and one wavenumber's
     right-hand side and solution as re/im pairs *)
  col : Vec.t;
  hat_re : Vec.t array;
  hat_im : Vec.t array;
  b_re : Vec.t;
  b_im : Vec.t;
  x_re : Vec.t;
  x_im : Vec.t;
}

let alloc_precond ~n ~n1 ~n2 =
  let half = n1 / 2 and big = n2 * n in
  let row () = Array.make (half + 1) 0. in
  {
    pn = n;
    pn1 = n1;
    pn2 = n2;
    half;
    big;
    rdft = Rdft.of_size n1;
    blocks =
      Array.init (half + 1) (fun _ ->
          { Cx.Clu.re = Mat.zeros big big; im = Mat.zeros big big; perm = Array.make big 0 });
    cbar = Array.init n2 (fun _ -> Mat.zeros n n);
    bbar = Array.init n2 (fun _ -> Mat.zeros n n);
    lambda_re = row ();
    lambda_im = row ();
    col = Array.make n1 0.;
    hat_re = Array.init big (fun _ -> row ());
    hat_im = Array.init big (fun _ -> row ());
    b_re = Array.make big 0.;
    b_im = Array.make big 0.;
    x_re = Array.make big 0.;
    x_im = Array.make big 0.;
  }

(* Wavenumber k's block, row (m, i) and column (q, l):
   [alpha_m lambda_k Cbar_m + Bbar_m] on the diagonal slice blocks,
   plus [K_mq Cbar_q] wherever K_mq is nonzero.  The diagonal entry is
   the boxed [Complex.add (Complex.mul a (Cbar, 0)) (Bbar, 0)] spelled
   out, a = alpha_m lambda_k, so a slice with no coupling factors
   bitwise what the uncoupled preconditioner did. *)
let fill_block pc ~alphas ~coupling k =
  let n = pc.pn and n2 = pc.pn2 in
  let { Cx.Clu.re = are; im = aim; _ } = pc.blocks.(k) in
  for m = 0 to n2 - 1 do
    let a_re = alphas.(m) *. pc.lambda_re.(k) and a_im = alphas.(m) *. pc.lambda_im.(k) in
    let bm = pc.bbar.(m) in
    for i = 0 to n - 1 do
      let rre = are.((m * n) + i) and rim = aim.((m * n) + i) in
      for q = 0 to n2 - 1 do
        let kmq = match coupling with None -> 0. | Some c -> c.(m).(q) in
        let cqi = pc.cbar.(q).(i) in
        for l = 0 to n - 1 do
          let c = cqi.(l) and idx = (q * n) + l in
          if q = m then begin
            let re = ((a_re *. c) -. (a_im *. 0.)) +. bm.(i).(l) in
            rre.(idx) <- (if kmq <> 0. then re +. (kmq *. c) else re);
            rim.(idx) <- ((a_re *. 0.) +. (a_im *. c)) +. 0.
          end
          else begin
            rre.(idx) <- (if kmq <> 0. then kmq *. c else 0.);
            rim.(idx) <- 0.
          end
        done
      done
    done
  done

(* The circulant differentiation matrix D (spectral or periodic FD)
   diagonalizes under the DFT across the t1 grid: with c the first
   column of D, its eigenvalue at wavenumber k is the DFT of c at k.
   Averaging each slice's dq/df blocks over t1 turns slice m's operator
   into blockdiag_k (alpha_m lambda_k Cbar_m + Bbar_m) in Fourier
   space, and the slow coupling K (x) C into K_mq Cbar_q, which is the
   same for every k: so one n2 n system per wavenumber holds the whole
   t2 coupling exactly.  Every vector is real and D is a real
   circulant, so lambda_{n1-k} = conj lambda_k and the block of n1 - k
   is the conjugate of the block of k: only k = 0..n1/2 are factored.
   The blocks are independent, so they fill and factor on the pool;
   the telemetry stays on the calling domain (the Obs metric cells
   are not synchronized), and a [Cx.Clu.Singular] raised by any block
   re-surfaces there after the barrier. *)
let make_precond ?into ?coupling ops =
  let n2 = Array.length ops in
  if n2 = 0 then invalid_arg "Structured.make_precond: no slice";
  let op0 = ops.(0) in
  let n = op0.n and n1 = op0.n1 in
  Array.iter
    (fun op ->
      if op.n <> n || op.n1 <> n1 then
        invalid_arg "Structured.make_precond: slices of different shapes")
    ops;
  (match coupling with
   | Some c when Mat.rows c <> n2 || Mat.cols c <> n2 ->
     invalid_arg "Structured.make_precond: coupling is not n2 x n2"
   | _ -> ());
  let pc =
    match into with
    | Some pc when pc.pn = n && pc.pn1 = n1 && pc.pn2 = n2 -> pc
    | _ -> alloc_precond ~n ~n1 ~n2
  in
  Obs.Metrics.incr c_builds;
  let inv_n1 = 1. /. float_of_int n1 in
  Array.iteri
    (fun m op ->
      let cbar = pc.cbar.(m) and bbar = pc.bbar.(m) in
      for i = 0 to n - 1 do
        Array.fill cbar.(i) 0 n 0.;
        Array.fill bbar.(i) 0 n 0.
      done;
      for k = 0 to n1 - 1 do
        let ck = op.c_blocks.(k) and bk = op.b_blocks.(k) in
        for i = 0 to n - 1 do
          for l = 0 to n - 1 do
            cbar.(i).(l) <- cbar.(i).(l) +. (inv_n1 *. ck.(i).(l));
            bbar.(i).(l) <- bbar.(i).(l) +. (inv_n1 *. bk.(i).(l))
          done
        done
      done)
    ops;
  for m = 0 to n1 - 1 do
    pc.col.(m) <- op0.d.(m).(0)
  done;
  Rdft.forward pc.rdft pc.col ~re:pc.lambda_re ~im:pc.lambda_im;
  let alphas = Array.map (fun op -> op.alpha) ops in
  for _ = 0 to pc.half do
    Obs.Metrics.incr c_block_factors;
    Cx.Clu.note_factor ~n:pc.big
  done;
  Par.Pool.parallel_for (pc.half + 1) (fun k ->
      fill_block pc ~alphas ~coupling k;
      Cx.Clu.factor_into pc.blocks.(k));
  pc

(* Apply M^{-1} to slices [stride] apart: a real DFT of each (slice,
   component) across the t1 grid, one block solve per wavenumber
   0..n1/2, the real inverse.  One sequential pass: on the grids the
   solvers use this is faster than handing the transforms to the pool.
   Every entry of [v] is read before any of [out] is written, so
   [make_bordered] may apply in place. *)
let apply_strided pc ~stride v out =
  Obs.Metrics.incr c_applies;
  let n = pc.pn and n1 = pc.pn1 and col = pc.col in
  for m = 0 to pc.pn2 - 1 do
    let off = m * stride in
    for i = 0 to n - 1 do
      for j = 0 to n1 - 1 do
        col.(j) <- v.(off + (j * n) + i)
      done;
      Rdft.forward pc.rdft col ~re:pc.hat_re.((m * n) + i) ~im:pc.hat_im.((m * n) + i)
    done
  done;
  for k = 0 to pc.half do
    for r = 0 to pc.big - 1 do
      pc.b_re.(r) <- pc.hat_re.(r).(k);
      pc.b_im.(r) <- pc.hat_im.(r).(k)
    done;
    Cx.Clu.solve_into pc.blocks.(k) ~b_re:pc.b_re ~b_im:pc.b_im ~x_re:pc.x_re ~x_im:pc.x_im;
    for r = 0 to pc.big - 1 do
      pc.hat_re.(r).(k) <- pc.x_re.(r);
      pc.hat_im.(r).(k) <- pc.x_im.(r)
    done
  done;
  for m = 0 to pc.pn2 - 1 do
    let off = m * stride in
    for i = 0 to n - 1 do
      Rdft.inverse pc.rdft ~re:pc.hat_re.((m * n) + i) ~im:pc.hat_im.((m * n) + i) col;
      for j = 0 to n1 - 1 do
        out.(off + (j * n) + i) <- col.(j)
      done
    done
  done

let precond_apply_into pc v out = apply_strided pc ~stride:(pc.pn * pc.pn1) v out

(* ------------------------------------------------------------------ *)
(* Bordered (Schur) preconditioner for the omega columns + phase rows  *)
(* ------------------------------------------------------------------ *)

exception Bordered_singular of float

type bordered = {
  mutable base : precond;
  mutable rows : Vec.t array;  (* the phase rows, by reference *)
  z : Vec.t array;  (* z.(q) = M^{-1} of slice q's omega column, slices nd apart *)
  s : Mat.t;  (* the Schur complement S_mq = row_m . z_q, unfactored ... *)
  slu : Mat.t;  (* ... and factored in place *)
  sperm : int array;
  t : Vec.t;  (* apply scratch: the Schur right-hand side, then zeta *)
  w : Vec.t;
}

(* Gaussian elimination with partial pivoting of the n2 x n2 Schur
   complement, shifted by [gmin] on the diagonal (away from zero);
   raises [Bordered_singular] on a pivot under 1e-300 in magnitude. *)
let schur_factor bp ~gmin =
  let n2 = Array.length bp.s and a = bp.slu in
  for m = 0 to n2 - 1 do
    Array.blit bp.s.(m) 0 a.(m) 0 n2;
    if gmin > 0. then a.(m).(m) <- a.(m).(m) +. Float.copy_sign gmin a.(m).(m);
    bp.sperm.(m) <- m
  done;
  for k = 0 to n2 - 1 do
    let p = ref k in
    for i = k + 1 to n2 - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!p).(k) then p := i
    done;
    let p = !p in
    if p <> k then begin
      let t = a.(k) in
      a.(k) <- a.(p);
      a.(p) <- t;
      let t = bp.sperm.(k) in
      bp.sperm.(k) <- bp.sperm.(p);
      bp.sperm.(p) <- t
    end;
    let pkk = a.(k).(k) in
    if Float.abs pkk < 1e-300 then raise (Bordered_singular pkk);
    for i = k + 1 to n2 - 1 do
      let m = a.(i).(k) /. pkk in
      a.(i).(k) <- m;
      for j = k + 1 to n2 - 1 do
        a.(i).(j) <- a.(i).(j) -. (m *. a.(k).(j))
      done
    done
  done

(* zeta = S^{-1} t, in place on [bp.t]; with n2 = 1 this is t / S *)
let schur_solve bp =
  let n2 = Array.length bp.s and a = bp.slu and t = bp.t and w = bp.w in
  for i = 0 to n2 - 1 do
    w.(i) <- t.(bp.sperm.(i))
  done;
  for i = 1 to n2 - 1 do
    for j = 0 to i - 1 do
      w.(i) <- w.(i) -. (a.(i).(j) *. w.(j))
    done
  done;
  for i = n2 - 1 downto 0 do
    let s = ref w.(i) in
    for j = i + 1 to n2 - 1 do
      s := !s -. (a.(i).(j) *. w.(j))
    done;
    w.(i) <- !s /. a.(i).(i)
  done;
  Array.blit w 0 t 0 n2

let dot_at a b ~off n =
  let s = ref 0. in
  for i = 0 to n - 1 do
    s := !s +. (a.(i) *. b.(off + i))
  done;
  !s

let make_bordered ?into pc ~cols ~rows =
  let n2 = pc.pn2 and nd = pc.pn * pc.pn1 in
  if Array.length cols <> n2 || Array.length rows <> n2 then
    invalid_arg "Structured.make_bordered: need one border column and row per slice";
  let bp =
    match into with
    | Some bp when Array.length bp.s = n2 && Array.length bp.z.(0) = n2 * nd ->
      bp.base <- pc;
      bp.rows <- rows;
      bp
    | _ ->
      {
        base = pc;
        rows;
        z = Array.init n2 (fun _ -> Array.make (n2 * nd) 0.);
        s = Mat.zeros n2 n2;
        slu = Mat.zeros n2 n2;
        sperm = Array.make n2 0;
        t = Array.make n2 0.;
        w = Array.make n2 0.;
      }
  in
  Array.iteri
    (fun q zq ->
      Array.fill zq 0 (n2 * nd) 0.;
      Array.blit cols.(q) 0 zq (q * nd) nd;
      apply_strided pc ~stride:nd zq zq)
    bp.z;
  for m = 0 to n2 - 1 do
    for q = 0 to n2 - 1 do
      let smq = dot_at rows.(m) bp.z.(q) ~off:(m * nd) nd in
      if not (Float.is_finite smq) then raise (Bordered_singular smq);
      bp.s.(m).(q) <- smq
    done
  done;
  (* a degenerate border (a phase row nearly orthogonal to the
     preconditioned omega columns) is shifted away from zero, gmin
     style, rather than sent straight to the dense path *)
  (try schur_factor bp ~gmin:0. with Bordered_singular _ -> schur_factor bp ~gmin:1e-9);
  bp

(* Exact inverse of [[M B] [P 0]] given M^{-1}, B's column q slice q's
   omega column and P's row m slice m's phase row:
   x = M^{-1} r - Z zeta with Z = M^{-1} B and
   zeta = S^{-1} (P M^{-1} r - rho), S = P Z. *)
let bordered_apply_into bp v out =
  let pc = bp.base in
  let n2 = pc.pn2 and nd = pc.pn * pc.pn1 in
  let bs = nd + 1 in
  apply_strided pc ~stride:bs v out;
  for m = 0 to n2 - 1 do
    bp.t.(m) <- dot_at bp.rows.(m) out ~off:(m * bs) nd -. v.((m * bs) + nd)
  done;
  schur_solve bp;
  for m = 0 to n2 - 1 do
    let off = m * bs in
    for q = 0 to n2 - 1 do
      let zeta = bp.t.(q) and zq = bp.z.(q) in
      for i = 0 to nd - 1 do
        out.(off + i) <- out.(off + i) -. (zeta *. zq.((m * nd) + i))
      done
    done;
    out.(off + nd) <- bp.t.(m)
  done
