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
   the result does not depend on the job count. *)
let apply_into op v out =
  let n = op.n and n1 = op.n1 in
  block_mul_into op.c_blocks ~src:v ~dst:op.cu;
  Par.Pool.parallel_for n1 (fun j ->
      let bj = op.b_blocks.(j) in
      let dj = op.d.(j) in
      let base = j * n in
      for i = 0 to n - 1 do
        let s = ref 0. in
        for k = 0 to n1 - 1 do
          s := !s +. (dj.(k) *. op.cu.((k * n) + i))
        done;
        let row = bj.(i) in
        let t = ref (op.alpha *. !s) in
        for l = 0 to n - 1 do
          t := !t +. (row.(l) *. v.(base + l))
        done;
        out.(base + i) <- !t
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

(* Dense assembly of the block part into the top-left corner of [jac]. *)
let dense_into op jac =
  let n = op.n and n1 = op.n1 in
  for j = 0 to n1 - 1 do
    for k = 0 to n1 - 1 do
      let scale = op.alpha *. op.d.(j).(k) in
      let ck = op.c_blocks.(k) in
      for i = 0 to n - 1 do
        for l = 0 to n - 1 do
          jac.((j * n) + i).((k * n) + l) <- scale *. ck.(i).(l)
        done
      done
    done;
    let bj = op.b_blocks.(j) in
    for i = 0 to n - 1 do
      for l = 0 to n - 1 do
        jac.((j * n) + i).((j * n) + l) <- jac.((j * n) + i).((j * n) + l) +. bj.(i).(l)
      done
    done
  done

(* ------------------------------------------------------------------ *)
(* Discrete Fourier transform plumbing                                 *)
(* ------------------------------------------------------------------ *)

type dft = {
  fwd : Cx.Cvec.t -> Cx.Cvec.t;
  inv : Cx.Cvec.t -> Cx.Cvec.t;
  fwd_pair : (Vec.t -> Vec.t -> unit) option;
  inv_pair : (Vec.t -> Vec.t -> unit) option;
}

(* O(n^2) reference transform in the engineering convention
   (forward kernel e^{-2 pi i j k / n}, inverse divides by n): matches
   Fourier.Fft, which callers above the linalg layer should inject. *)
let naive_dft =
  let transform sign scale x =
    let n = Array.length x in
    let s = if scale then 1. /. float_of_int n else 1. in
    Array.init n (fun k ->
        let acc = ref Complex.zero in
        for j = 0 to n - 1 do
          let theta = sign *. 2. *. Float.pi *. float_of_int (j * k) /. float_of_int n in
          acc := Complex.add !acc (Complex.mul x.(j) (Cx.cis theta))
        done;
        Cx.scale s !acc)
  in
  { fwd = transform (-1.) false; inv = transform 1. true; fwd_pair = None; inv_pair = None }

(* In-place pair views of a [dft]; the boxing fallback keeps the naive
   transform (and any caller-supplied dft without pair kernels)
   working, at the old allocation cost. *)
let fwd_pair_of dft =
  match dft.fwd_pair with
  | Some f -> f
  | None ->
      fun re im ->
        let z = dft.fwd (Array.init (Array.length re) (fun k -> Cx.cx re.(k) im.(k))) in
        for k = 0 to Array.length re - 1 do
          re.(k) <- Cx.re z.(k);
          im.(k) <- Cx.im z.(k)
        done

let inv_pair_of dft =
  match dft.inv_pair with
  | Some f -> f
  | None ->
      fun re im ->
        let z = dft.inv (Array.init (Array.length re) (fun k -> Cx.cx re.(k) im.(k))) in
        for k = 0 to Array.length re - 1 do
          re.(k) <- Cx.re z.(k);
          im.(k) <- Cx.im z.(k)
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

(* Per-worker apply scratch: one full-spectrum re/im pair for the
   transforms, and the right-hand side and solution of one wavenumber
   block solve as re/im pairs. *)
type pc_ws = {
  w_re : Vec.t;
  w_im : Vec.t;
  w_bre : Vec.t;
  w_bim : Vec.t;
  w_xre : Vec.t;
  w_xim : Vec.t;
}

type precond = {
  pn : int;
  pn1 : int;
  half : int;  (* n1 / 2: wavenumbers 0..half are represented explicitly *)
  blocks : Cx.Clu.t array;  (* factored M_l for l = 0..half only *)
  transform : dft;
  hat_re : Vec.t array;  (* lower-half spectra, n rows of length half+1 *)
  hat_im : Vec.t array;
  mutable ws : pc_ws array;  (* per-worker workspaces, grown on demand *)
}

let ensure_ws pc k =
  if Array.length pc.ws < k then begin
    let old = pc.ws in
    pc.ws <-
      Array.init k (fun w ->
          if w < Array.length old then old.(w)
          else
            {
              w_re = Array.make pc.pn1 0.;
              w_im = Array.make pc.pn1 0.;
              w_bre = Array.make pc.pn 0.;
              w_bim = Array.make pc.pn 0.;
              w_xre = Array.make pc.pn 0.;
              w_xim = Array.make pc.pn 0.;
            })
  end;
  pc.ws

(* The circulant differentiation matrix D (spectral or periodic FD)
   diagonalizes under the DFT across the block index: with c the first
   column of D, its eigenvalue at wavenumber l is fwd(c)_l.  Averaging
   the dq/df blocks over the grid turns the operator into
   blockdiag_l (alpha lambda_l Cbar + Bbar) in Fourier space. *)
let make_precond ?(dft = naive_dft) op =
  Obs.Metrics.incr c_builds;
  let n = op.n and n1 = op.n1 in
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
  let col0 = Cx.Cvec.init n1 (fun m -> Cx.cx op.d.(m).(0) 0.) in
  let lambda = dft.fwd col0 in
  (* The preconditioner only ever sees real vectors, and D is a real
     circulant, so lambda_{n1-l} = conj lambda_l and M_{n1-l} = conj M_l:
     only the lower half-spectrum blocks need factoring, and conjugate
     symmetry supplies the rest. *)
  let half = n1 / 2 in
  let coeffs = Array.init (half + 1) (fun l -> Cx.scale op.alpha lambda.(l)) in
  {
    pn = n;
    pn1 = n1;
    half;
    blocks = spectral_blocks ~coeffs ~cbar ~bbar;
    transform = dft;
    hat_re = Array.init n (fun _ -> Array.make (half + 1) 0.);
    hat_im = Array.init n (fun _ -> Array.make (half + 1) 0.);
    ws = [||];
  }

(* Apply M^{-1}: component-wise DFT across the blocks, one small
   complex solve per wavenumber, inverse DFT.  Only the first
   [n1 * n] entries of [v] are read and of [out] written.  The input
   is real, so the per-component spectra are conjugate-symmetric:
   components are transformed two-per-complex-FFT, only wavenumbers
   0..n1/2 are solved, and the inverse transforms are paired the same
   way. *)
let precond_apply_into pc v out =
  Obs.Metrics.incr c_applies;
  let n = pc.pn and n1 = pc.pn1 and half = pc.half in
  let fwd_pair = fwd_pair_of pc.transform and inv_pair = inv_pair_of pc.transform in
  let npairs = (n + 1) / 2 in
  let ws =
    ensure_ws pc
      (max (Par.Pool.chunk_count npairs) (Par.Pool.chunk_count (half + 1)))
  in
  (* Each parallel stage writes disjoint slots and performs no
     cross-chunk reduction, so the result is bitwise identical for
     every job count. *)
  Par.Pool.parallel_chunks npairs (fun ~worker ~lo ~hi ->
      let w = ws.(worker) in
      for p = lo to hi - 1 do
        let ia = 2 * p in
        if ia + 1 < n then begin
          (* components ia and ia+1 ride as re/im of one complex series *)
          for k = 0 to n1 - 1 do
            w.w_re.(k) <- v.((k * n) + ia);
            w.w_im.(k) <- v.((k * n) + ia + 1)
          done;
          fwd_pair w.w_re w.w_im;
          let ha_re = pc.hat_re.(ia) and ha_im = pc.hat_im.(ia) in
          let hb_re = pc.hat_re.(ia + 1) and hb_im = pc.hat_im.(ia + 1) in
          for l = 0 to half do
            let m = (n1 - l) mod n1 in
            let zlr = w.w_re.(l) and zli = w.w_im.(l) in
            let zmr = w.w_re.(m) and zmi = w.w_im.(m) in
            ha_re.(l) <- 0.5 *. (zlr +. zmr);
            ha_im.(l) <- 0.5 *. (zli -. zmi);
            hb_re.(l) <- 0.5 *. (zli +. zmi);
            hb_im.(l) <- 0.5 *. (zmr -. zlr)
          done
        end
        else begin
          for k = 0 to n1 - 1 do
            w.w_re.(k) <- v.((k * n) + ia);
            w.w_im.(k) <- 0.
          done;
          fwd_pair w.w_re w.w_im;
          let ha_re = pc.hat_re.(ia) and ha_im = pc.hat_im.(ia) in
          for l = 0 to half do
            ha_re.(l) <- w.w_re.(l);
            ha_im.(l) <- w.w_im.(l)
          done
        end
      done);
  Par.Pool.parallel_chunks (half + 1) (fun ~worker ~lo ~hi ->
      let w = ws.(worker) in
      for l = lo to hi - 1 do
        for i = 0 to n - 1 do
          w.w_bre.(i) <- pc.hat_re.(i).(l);
          w.w_bim.(i) <- pc.hat_im.(i).(l)
        done;
        Cx.Clu.solve_into pc.blocks.(l) ~b_re:w.w_bre ~b_im:w.w_bim ~x_re:w.w_xre ~x_im:w.w_xim;
        for i = 0 to n - 1 do
          pc.hat_re.(i).(l) <- w.w_xre.(i);
          pc.hat_im.(i).(l) <- w.w_xim.(i)
        done
      done);
  Par.Pool.parallel_chunks npairs (fun ~worker ~lo ~hi ->
      let w = ws.(worker) in
      for p = lo to hi - 1 do
        let ia = 2 * p in
        if ia + 1 < n then begin
          let ha_re = pc.hat_re.(ia) and ha_im = pc.hat_im.(ia) in
          let hb_re = pc.hat_re.(ia + 1) and hb_im = pc.hat_im.(ia + 1) in
          for l = 0 to half do
            w.w_re.(l) <- ha_re.(l) -. hb_im.(l);
            w.w_im.(l) <- ha_im.(l) +. hb_re.(l)
          done;
          for l = half + 1 to n1 - 1 do
            let m = n1 - l in
            w.w_re.(l) <- ha_re.(m) +. hb_im.(m);
            w.w_im.(l) <- hb_re.(m) -. ha_im.(m)
          done;
          inv_pair w.w_re w.w_im;
          for k = 0 to n1 - 1 do
            out.((k * n) + ia) <- w.w_re.(k);
            out.((k * n) + ia + 1) <- w.w_im.(k)
          done
        end
        else begin
          let ha_re = pc.hat_re.(ia) and ha_im = pc.hat_im.(ia) in
          for l = 0 to half do
            w.w_re.(l) <- ha_re.(l);
            w.w_im.(l) <- ha_im.(l)
          done;
          for l = half + 1 to n1 - 1 do
            w.w_re.(l) <- ha_re.(n1 - l);
            w.w_im.(l) <- -.ha_im.(n1 - l)
          done;
          inv_pair w.w_re w.w_im;
          for k = 0 to n1 - 1 do
            out.((k * n) + ia) <- w.w_re.(k)
          done
        end
      done)

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
   spectral blocks are factored copies; [hat_re]/[hat_im]/[ws] are
   per-apply scratch), so reusing one across Newton iterates, macro
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

let make_precond_cached ?dft ~key op =
  if not (Precond_cache.enabled ()) then make_precond ?dft op
  else
    match Precond_cache.find key with
    | Some pc -> pc
    | None ->
      let pc = make_precond ?dft op in
      Precond_cache.store key pc;
      pc

(* ------------------------------------------------------------------ *)
(* Packaged Newton-direction solves                                    *)
(* ------------------------------------------------------------------ *)

let solve_op ?dft ?(restart = 80) ?max_iter ?(tol = 1e-10) op b =
  let pc = make_precond ?dft op in
  Gmres.solve ~matvec:(apply_into op) ~m_inv:(precond_apply_into pc) ~restart ?max_iter ~tol b
