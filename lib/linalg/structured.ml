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

(* Dense assembly of the block part into the top-left corner of [jac]:
   row i of block row j is fetched once and filled block by block,
   alpha d_jk (C_k)_i, then B_j's row i is added on the diagonal
   block.  The fill runs unchecked once the sizes it reads and writes
   are checked: with n = 4, a bounds check on every entry costs about
   a third of the call. *)
let dense_into op jac =
  let n = op.n and n1 = op.n1 in
  let nd = n1 * n in
  let too_small () = invalid_arg "Structured.dense_into: jac or a C block too small" in
  if Array.length jac < nd then too_small ();
  for r = 0 to nd - 1 do
    if Array.length jac.(r) < nd then too_small ()
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
      let row = Array.unsafe_get jac ((j * n) + i) in
      for k = 0 to n1 - 1 do
        let scale = op.alpha *. dj.(k) in
        let cki = Array.unsafe_get (Array.unsafe_get op.c_blocks k) i and base = k * n in
        for l = 0 to n - 1 do
          Array.unsafe_set row (base + l) (scale *. Array.unsafe_get cki l)
        done
      done;
      let bji = bj.(i) and base = j * n in
      for l = 0 to n - 1 do
        row.(base + l) <- row.(base + l) +. bji.(l)
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Averaged-Jacobian block preconditioner                              *)
(* ------------------------------------------------------------------ *)

(* Factor one small complex block per wavenumber/harmonic:
   M_l = coeffs_l * cbar + bbar.  Blocks are independent, so they
   factor in parallel (telemetry hoisted to the calling domain — the
   Obs metric cells are not synchronized — which also keeps the counts
   identical for every job count).  A [Cx.Clu.Singular] raised by any
   block re-surfaces on the calling domain after the pool barrier. *)
let spectral_blocks ~coeffs ~cbar ~bbar =
  let n = Mat.rows cbar in
  let nb = Array.length coeffs in
  for _ = 1 to nb do
    Obs.Metrics.incr c_block_factors;
    Cx.Clu.note_factor ~n
  done;
  let out = Array.make nb None in
  Par.Pool.parallel_for nb (fun l ->
      let a = coeffs.(l) in
      out.(l) <-
        Some
          (Cx.Clu.factor_quiet
             (Cx.Cmat.init n n (fun i j ->
                  Complex.add (Complex.mul a (Cx.cx cbar.(i).(j) 0.)) (Cx.cx bbar.(i).(j) 0.)))));
  Array.map (function Some f -> f | None -> assert false) out

type precond = {
  pn : int;
  pn1 : int;
  half : int;  (* n1 / 2: wavenumbers 0..half are represented explicitly *)
  rdft : Rdft.t;
  blocks : Cx.Clu.t array;  (* factored M_l for l = 0..half only *)
  (* apply scratch: one component's t1 samples, its lower-half spectra
     (n rows of length half+1) and one wavenumber's block right-hand
     side and solution as re/im pairs *)
  col : Vec.t;
  hat_re : Vec.t array;
  hat_im : Vec.t array;
  b_re : Vec.t;
  b_im : Vec.t;
  x_re : Vec.t;
  x_im : Vec.t;
}

(* The circulant differentiation matrix D (spectral or periodic FD)
   diagonalizes under the DFT across the block index: with c the first
   column of D, its eigenvalue at wavenumber l is the DFT of c at l.
   Averaging the dq/df blocks over the grid turns the operator into
   blockdiag_l (alpha lambda_l Cbar + Bbar) in Fourier space.  The
   preconditioner only ever sees real vectors, and D is a real
   circulant, so lambda_{n1-l} = conj lambda_l and M_{n1-l} = conj M_l:
   only the lower half-spectrum blocks need factoring, and conjugate
   symmetry supplies the rest. *)
let make_precond op =
  let n = op.n and n1 = op.n1 in
  let rdft = Rdft.of_size n1 in
  Obs.Metrics.incr c_builds;
  let inv_n1 = 1. /. float_of_int n1 in
  let cbar = Mat.zeros n n and bbar = Mat.zeros n n in
  for k = 0 to n1 - 1 do
    let ck = op.c_blocks.(k) and bk = op.b_blocks.(k) in
    for i = 0 to n - 1 do
      for l = 0 to n - 1 do
        cbar.(i).(l) <- cbar.(i).(l) +. (inv_n1 *. ck.(i).(l));
        bbar.(i).(l) <- bbar.(i).(l) +. (inv_n1 *. bk.(i).(l))
      done
    done
  done;
  let half = n1 / 2 in
  let lambda_re = Array.make (half + 1) 0. and lambda_im = Array.make (half + 1) 0. in
  Rdft.forward rdft (Array.init n1 (fun m -> op.d.(m).(0))) ~re:lambda_re ~im:lambda_im;
  let coeffs =
    Array.init (half + 1) (fun l -> Cx.cx (op.alpha *. lambda_re.(l)) (op.alpha *. lambda_im.(l)))
  in
  {
    pn = n;
    pn1 = n1;
    half;
    rdft;
    blocks = spectral_blocks ~coeffs ~cbar ~bbar;
    col = Array.make n1 0.;
    hat_re = Array.init n (fun _ -> Array.make (half + 1) 0.);
    hat_im = Array.init n (fun _ -> Array.make (half + 1) 0.);
    b_re = Array.make n 0.;
    b_im = Array.make n 0.;
    x_re = Array.make n 0.;
    x_im = Array.make n 0.;
  }

(* Apply M^{-1}: a real DFT of each component across the blocks, one
   small complex solve per wavenumber 0..n1/2, the real inverse DFT.
   One sequential pass: on the grids the solvers use this is faster
   than handing the transforms to the pool.  Only the first [n1 * n]
   entries of [v] are read and of [out] written. *)
let precond_apply_into pc v out =
  Obs.Metrics.incr c_applies;
  let n = pc.pn and n1 = pc.pn1 and col = pc.col in
  for i = 0 to n - 1 do
    for k = 0 to n1 - 1 do
      col.(k) <- v.((k * n) + i)
    done;
    Rdft.forward pc.rdft col ~re:pc.hat_re.(i) ~im:pc.hat_im.(i)
  done;
  for l = 0 to pc.half do
    for i = 0 to n - 1 do
      pc.b_re.(i) <- pc.hat_re.(i).(l);
      pc.b_im.(i) <- pc.hat_im.(i).(l)
    done;
    Cx.Clu.solve_into pc.blocks.(l) ~b_re:pc.b_re ~b_im:pc.b_im ~x_re:pc.x_re ~x_im:pc.x_im;
    for i = 0 to n - 1 do
      pc.hat_re.(i).(l) <- pc.x_re.(i);
      pc.hat_im.(i).(l) <- pc.x_im.(i)
    done
  done;
  for i = 0 to n - 1 do
    Rdft.inverse pc.rdft ~re:pc.hat_re.(i) ~im:pc.hat_im.(i) col;
    for k = 0 to n1 - 1 do
      out.((k * n) + i) <- col.(k)
    done
  done

(* ------------------------------------------------------------------ *)
(* Bordered (Schur) preconditioner for the omega column + phase row    *)
(* ------------------------------------------------------------------ *)

exception Bordered_singular of float

type bordered = { base : precond; brow : Vec.t; z2 : Vec.t; pz2 : float }

let dot_prefix a b n =
  let s = ref 0. in
  for i = 0 to n - 1 do
    s := !s +. (a.(i) *. b.(i))
  done;
  !s

let make_bordered ?(gmin = 0.) pc ~border_col ~border_row =
  let nd = pc.pn * pc.pn1 in
  let z2 = Array.make nd 0. in
  precond_apply_into pc border_col z2;
  let pz2 = dot_prefix border_row z2 nd in
  if not (Float.is_finite pz2) then raise (Bordered_singular pz2);
  (* gmin regularization: shift the Schur scalar away from zero so the
     bordered inverse stays bounded even when the phase row is (nearly)
     orthogonal to the preconditioned omega column *)
  let pz2 = if gmin > 0. then pz2 +. Float.copy_sign gmin pz2 else pz2 in
  if Float.abs pz2 < 1e-300 then raise (Bordered_singular pz2);
  { base = pc; brow = border_row; z2; pz2 }

(* Exact inverse of [[M b] [p 0]] given M^{-1}: z = M^{-1} r - zeta z2
   with z2 = M^{-1} b and zeta = (p . M^{-1} r - rho) / (p . z2). *)
let bordered_apply_into bp v out =
  let nd = bp.base.pn * bp.base.pn1 in
  precond_apply_into bp.base v out;
  let rho = v.(nd) in
  let zeta = (dot_prefix bp.brow out nd -. rho) /. bp.pz2 in
  for i = 0 to nd - 1 do
    out.(i) <- out.(i) -. (zeta *. bp.z2.(i))
  done;
  out.(nd) <- zeta

(* ------------------------------------------------------------------ *)
(* Cross-solve preconditioner cache                                    *)
(* ------------------------------------------------------------------ *)

(* ~1% relative log-scale buckets for cache keys: two operator scalars
   (omega, h2 theta) land in the same bucket iff they differ by less
   than about one percent — close enough that one factored
   preconditioner serves both. *)
let log_bucket x =
  if not (Float.is_finite x) || x = 0. then min_int
  else int_of_float (Float.round (100. *. Float.log (Float.abs x)))

(* LRU of factored block preconditioners, shared across solves and
   jobs.  A [precond] is self-contained after [make_precond] (the
   spectral blocks are factored copies; the rest is per-apply
   scratch), so reusing one across Newton iterates, macro
   steps and whole jobs only changes GMRES iteration counts, never the
   solution: the operator products stay fresh and the outer tolerance
   is unchanged.  Disabled (capacity 0) by default — the serve daemon
   turns it on so repeated-circuit job batches amortize the n1 complex
   block factorizations.  Not synchronized: callers factor and look up
   on one domain (pool workers only ever run inside an apply). *)
module Precond_cache = struct
  let c_hits = Obs.Metrics.counter "cache.precond.hits"
  let c_misses = Obs.Metrics.counter "cache.precond.misses"
  let c_evictions = Obs.Metrics.counter "cache.precond.evictions"
  let g_entries = Obs.Metrics.gauge "cache.precond.entries"

  type entry = { pc : precond; mutable stamp : int }

  let capacity = ref 0
  let clock = ref 0
  let table : (string, entry) Hashtbl.t = Hashtbl.create 64
  let note_entries () = Obs.Metrics.set g_entries (float_of_int (Hashtbl.length table))

  let clear () =
    Hashtbl.reset table;
    note_entries ()

  let evict_oldest () =
    let victim =
      Hashtbl.fold
        (fun key e acc ->
          match acc with
          | Some (_, stamp) when stamp <= e.stamp -> acc
          | _ -> Some (key, e.stamp))
        table None
    in
    match victim with
    | Some (key, _) ->
      Hashtbl.remove table key;
      Obs.Metrics.incr c_evictions;
      note_entries ()
    | None -> ()

  let set_capacity n =
    capacity := Int.max 0 n;
    if !capacity = 0 then clear ()
    else
      while Hashtbl.length table > !capacity do
        evict_oldest ()
      done

  let enabled () = !capacity > 0

  let find key =
    match Hashtbl.find_opt table key with
    | Some e ->
      incr clock;
      e.stamp <- !clock;
      Obs.Metrics.incr c_hits;
      Some e.pc
    | None ->
      Obs.Metrics.incr c_misses;
      None

  let store key pc =
    if !capacity > 0 then begin
      while Hashtbl.length table >= !capacity do
        evict_oldest ()
      done;
      incr clock;
      Hashtbl.replace table key { pc; stamp = !clock };
      note_entries ()
    end
end

let make_precond_cached ~key op =
  if not (Precond_cache.enabled ()) then make_precond op
  else
    match Precond_cache.find key with
    | Some pc -> pc
    | None ->
      let pc = make_precond op in
      Precond_cache.store key pc;
      pc
