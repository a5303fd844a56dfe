module Obs = Wampde_obs

type result = { x : Vec.t; residual_norm : float; iterations : int; converged : bool }

let c_solves = Obs.Metrics.counter "gmres.solves"
let c_iters = Obs.Metrics.counter "gmres.iterations"
let h_iters = Obs.Metrics.histogram "gmres.iterations_per_solve"

(* Everything a solve writes besides its result: the Krylov basis, the
   (m+1) x m Hessenberg with its Givens rotations, the rotated
   right-hand side [g], the back-substituted [y], and two length-n work
   vectors.  Every entry a cycle reads is written earlier in the same
   cycle, so a workspace carries nothing from one solve to the next. *)
type workspace = {
  wn : int;
  wm : int;  (* Hessenberg columns: min restart max_iter *)
  v : Vec.t array;  (* m + 1 basis vectors; v.(0) also holds the residual *)
  h : float array array;
  cs : float array;
  sn : float array;
  g : float array;
  y : float array;
  z : Vec.t;  (* preconditioned basis vector / correction *)
  u : Vec.t;  (* combined correction, then A x *)
}

(* The Gram-Schmidt inner product: a plain sum in four accumulators
   (entry i into accumulator i mod 4), added pairwise at the end.  Not
   Kahan-compensated as [Vec.dot] is: that loop is bound by the
   latency of its chain of dependent adds, and modified Gram-Schmidt
   does not need the compensation.  Both vectors are workspace vectors
   of the solve's length, so the loop is unchecked.  Inlined so that
   the result stays unboxed. *)
let[@inline] gs_dot u v =
  let n = Array.length u in
  let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
  let i = ref 0 in
  while !i + 4 <= n do
    let j = !i in
    s0 := !s0 +. (Array.unsafe_get u j *. Array.unsafe_get v j);
    s1 := !s1 +. (Array.unsafe_get u (j + 1) *. Array.unsafe_get v (j + 1));
    s2 := !s2 +. (Array.unsafe_get u (j + 2) *. Array.unsafe_get v (j + 2));
    s3 := !s3 +. (Array.unsafe_get u (j + 3) *. Array.unsafe_get v (j + 3));
    i := j + 4
  done;
  for j = !i to n - 1 do
    s0 := !s0 +. (Array.unsafe_get u j *. Array.unsafe_get v j)
  done;
  (!s0 +. !s1) +. (!s2 +. !s3)

let default_restart = 50
let default_max_iter restart = 10 * restart

let workspace ~n ?(restart = default_restart) ?max_iter () =
  let max_iter = match max_iter with Some m -> m | None -> default_max_iter restart in
  let m = Int.min restart max_iter in
  {
    wn = n;
    wm = m;
    v = Array.init (m + 1) (fun _ -> Array.make n 0.);
    h = Array.init (m + 1) (fun _ -> Array.make m 0.);
    cs = Array.make m 0.;
    sn = Array.make m 0.;
    g = Array.make (m + 1) 0.;
    y = Array.make m 0.;
    z = Array.make n 0.;
    u = Array.make n 0.;
  }

(* Restarted GMRES with modified Gram-Schmidt Arnoldi and Givens
   rotations applied to the Hessenberg matrix as it is built, so the
   least-squares problem is solved incrementally.  All vector work
   happens in the workspace: an iteration allocates nothing of size n. *)
let solve ~matvec ?m_inv ?ws ?x0 ?(restart = default_restart) ?max_iter ?(tol = 1e-10) b =
  Obs.Span.span ~attrs:[ ("dim", Obs.Span.Int (Array.length b)) ] "gmres.solve" @@ fun () ->
  let n = Array.length b in
  let max_iter = match max_iter with Some m -> m | None -> default_max_iter restart in
  let ws =
    match ws with
    | None -> workspace ~n ~restart ~max_iter ()
    | Some ws ->
      if ws.wn <> n || ws.wm <> Int.min restart max_iter then
        invalid_arg
          (Printf.sprintf
             "Gmres.solve: workspace is %d x %d, system needs %d x min(restart %d, max_iter %d)"
             ws.wn ws.wm n restart max_iter);
      ws
  in
  let { wm = m; v; h; cs; sn; g; y; z; u; _ } = ws in
  let x = match x0 with Some x0 -> Array.copy x0 | None -> Array.make n 0. in
  let bnorm = Vec.norm2 b in
  let target = tol *. Float.max bnorm 1e-300 in
  let total_iters = ref 0 in
  (* [r] = v.(0) holds the current true residual b - A x, so a restart
     reuses the vector computed for the convergence check (and a zero
     initial guess costs no matvec at all: r = b). *)
  let r = v.(0) in
  let residual_into () =
    matvec x u;
    for i = 0 to n - 1 do
      r.(i) <- b.(i) -. u.(i)
    done
  in
  let rec cycle () =
    let beta = Vec.norm2 r in
    if beta <= target || !total_iters >= max_iter then beta
    else begin
      (* Krylov basis vectors (preconditioned space) *)
      Vec.scale_inplace (1. /. beta) r;
      g.(0) <- beta;
      let k_done = ref 0 in
      (try
         for j = 0 to m - 1 do
           if !total_iters >= max_iter then raise Exit;
           incr total_iters;
           let w = v.(j + 1) in
           (match m_inv with
            | Some m_inv ->
              m_inv v.(j) z;
              matvec z w
            | None -> matvec v.(j) w);
           (* modified Gram-Schmidt *)
           for i = 0 to j do
             let hij = gs_dot v.(i) w in
             h.(i).(j) <- hij;
             Vec.axpy ~a:(-.hij) ~x:v.(i) w
           done;
           let hj1 = sqrt (gs_dot w w) in
           h.(j + 1).(j) <- hj1;
           (* apply previous Givens rotations to the new column *)
           for i = 0 to j - 1 do
             let t = (cs.(i) *. h.(i).(j)) +. (sn.(i) *. h.(i + 1).(j)) in
             h.(i + 1).(j) <- (-.sn.(i) *. h.(i).(j)) +. (cs.(i) *. h.(i + 1).(j));
             h.(i).(j) <- t
           done;
           (* new rotation to zero h.(j+1).(j) *)
           let denom = Float.hypot h.(j).(j) h.(j + 1).(j) in
           if denom = 0. then begin
             cs.(j) <- 1.;
             sn.(j) <- 0.
           end
           else begin
             cs.(j) <- h.(j).(j) /. denom;
             sn.(j) <- h.(j + 1).(j) /. denom
           end;
           h.(j).(j) <- (cs.(j) *. h.(j).(j)) +. (sn.(j) *. h.(j + 1).(j));
           h.(j + 1).(j) <- 0.;
           g.(j + 1) <- -.sn.(j) *. g.(j);
           g.(j) <- cs.(j) *. g.(j);
           Obs.Metrics.incr c_iters;
           k_done := j + 1;
           if hj1 = 0. || Float.abs g.(j + 1) <= target then raise Exit;
           Vec.scale_inplace (1. /. hj1) w
         done
       with Exit -> ());
      let k = !k_done in
      if k = 0 then beta
      else begin
        (* back-substitute the k x k triangular system *)
        for i = k - 1 downto 0 do
          let s = ref g.(i) in
          for j = i + 1 to k - 1 do
            s := !s -. (h.(i).(j) *. y.(j))
          done;
          y.(i) <- !s /. h.(i).(i)
        done;
        (* combine in the unpreconditioned basis first, then apply the
           (linear) preconditioner once: x' = x + M^-1 (V y) *)
        Array.fill u 0 n 0.;
        for j = 0 to k - 1 do
          if y.(j) <> 0. then Vec.axpy ~a:y.(j) ~x:v.(j) u
        done;
        (match m_inv with
         | Some m_inv ->
           m_inv u z;
           Vec.axpy ~a:1. ~x:z x
         | None -> Vec.axpy ~a:1. ~x:u x);
        residual_into ();
        let res = Vec.norm2 r in
        if res <= target || !total_iters >= max_iter then res else cycle ()
      end
    end
  in
  (match x0 with None -> Array.blit b 0 r 0 n | Some _ -> residual_into ());
  let beta0 = Vec.norm2 r in
  let res = cycle () in
  Obs.Metrics.incr c_solves;
  Obs.Metrics.observe h_iters (float_of_int !total_iters);
  let converged = res <= target in
  (* mean per-iteration residual-reduction factor: the plateau signal
     for the health monitor (a well-preconditioned operator contracts
     well below 1 per iteration) *)
  let reduction =
    if !total_iters > 0 && beta0 > 0. && res > 0. then
      (res /. beta0) ** (1. /. float_of_int !total_iters)
    else nan
  in
  Obs.Health.note_gmres ~iterations:!total_iters ~restart ~converged ~reduction ();
  { x; residual_norm = res; iterations = !total_iters; converged }
