open Linalg

type omega = Unknown of Vec.t | Fixed of float

type border = { col : Vec.t; row : Vec.t }
type lin = { op : Structured.op; c_blocks : Mat.t array; border : border option }

(* Per-slice scratch: the unpacked grid states, the charges q(X_j)
   (per point as evaluated, and flat as Q, j n + i) and resistive terms
   f(t2, X_j) and the charges' t1 derivative (D Q) at the last
   evaluated point; and the slice's last linearization with its B
   blocks, whose buffers the next one refills. *)
type buf = {
  states : Vec.t array;
  qs : Vec.t array;
  fs : Vec.t array;
  q_flat : Vec.t;
  q_t1 : Vec.t;
  mutable last : (lin * Mat.t array) option;
}

type t = {
  dae : System.t;
  n : int;
  n1 : int;
  nd : int;
  d : Mat.t;
  omega : omega;
  forcing : (int -> t2:float -> Vec.t) option;
  buf : buf;
  g : Vec.t;  (* scratch: g at the last theta-step residual point *)
  mutable writes : int;  (* passes that wrote [buf] or [g], see [step_point] *)
}

let new_buf ~n1 ~n =
  {
    states = Array.init n1 (fun _ -> Array.make n 0.);
    qs = Array.init n1 (fun _ -> Array.make n 0.);
    fs = Array.init n1 (fun _ -> Array.make n 0.);
    q_flat = Array.make (n1 * n) 0.;
    q_t1 = Array.make (n1 * n) 0.;
    last = None;
  }

let make dae ~d ~omega ~forcing =
  let n = dae.System.dim and n1 = Mat.rows d in
  (match omega with
   | Unknown row when Array.length row <> n1 * n ->
     invalid_arg "Dae.Semidisc.make: phase row length differs from n1 * dim"
   | _ -> ());
  {
    dae;
    n;
    n1;
    nd = n1 * n;
    d;
    omega;
    forcing;
    buf = new_buf ~n1 ~n;
    g = Array.make (n1 * n) 0.;
    writes = 0;
  }

let size t = match t.omega with Unknown _ -> t.nd + 1 | Fixed _ -> t.nd
let omega_at t y ~off = match t.omega with Unknown _ -> y.(off + t.nd) | Fixed w -> w

let check_grid t ~fn grid =
  if Array.length grid <> t.n1 || Array.exists (fun x -> Array.length x <> t.n) grid then
    invalid_arg (Printf.sprintf "%s: expected %d states of dimension %d" fn t.n1 t.n)

let pack t states omega =
  let y = Array.make (size t) omega in
  Array.iteri (fun j s -> Array.blit s 0 y (j * t.n) t.n) states;
  y

let unpack t y ~off = Array.init t.n1 (fun j -> Array.sub y (off + (j * t.n)) t.n)

let load t buf y ~off =
  for j = 0 to t.n1 - 1 do
    Array.blit y (off + (j * t.n)) buf.states.(j) 0 t.n
  done

(* buf.q_flat <- Q and buf.q_t1 <- (D (x) I) Q from the charges in
   buf.qs (plain copy loops: a point's few states are too short for a
   C blit to pay) *)
let charges_t1 t buf =
  for j = 0 to t.n1 - 1 do
    let qj = buf.qs.(j) and base = j * t.n in
    for i = 0 to t.n - 1 do
      buf.q_flat.(base + i) <- qj.(i)
    done
  done;
  Mat.kron_eye_into t.d ~n:t.n ~lo:0 ~hi:t.n1 buf.q_flat buf.q_t1

(* dst.(dst_off + j n + i) <- omega (D Q)_{j,i} + f(t2, X_j)_i [+ b_j,i]
   for the slice at y.(off): one evaluation per grid point; leaves the
   slice's charges in [buf]. *)
let g_at t buf ~t2 y ~off dst ~dst_off =
  load t buf y ~off;
  for j = 0 to t.n1 - 1 do
    t.dae.System.eval_into ~t:t2 buf.states.(j) ~q:buf.qs.(j) ~f:buf.fs.(j) ~c:[||] ~g:[||]
  done;
  charges_t1 t buf;
  let om = omega_at t y ~off in
  for j = 0 to t.n1 - 1 do
    let fj = buf.fs.(j) in
    let base = j * t.n in
    match t.forcing with
    | None ->
      for i = 0 to t.n - 1 do
        dst.(dst_off + base + i) <- (om *. buf.q_t1.(base + i)) +. fj.(i)
      done
    | Some b ->
      let bj = b j ~t2 in
      for i = 0 to t.n - 1 do
        dst.(dst_off + base + i) <- (om *. buf.q_t1.(base + i)) +. fj.(i) +. bj.(i)
      done
  done

let phase_at t y ~off dst ~dst_off =
  match t.omega with
  | Fixed _ -> ()
  | Unknown row ->
    let s = ref 0. in
    for idx = 0 to t.nd - 1 do
      s := !s +. (row.(idx) *. y.(off + idx))
    done;
    dst.(dst_off + t.nd) <- !s

let g t ~t2 y =
  let dst = Array.make t.nd 0. in
  t.writes <- t.writes + 1;
  g_at t t.buf ~t2 y ~off:0 dst ~dst_off:0;
  dst

(* ---------- linearization ---------- *)

(* [scale] d/d(X, omega) of g, plus blockdiag(C) when [with_c]:
   op = scale omega (D (x) C) + blockdiag([C +] scale G), border column
   scale (D Q).  The blocks, the border column and the operator's
   scratch are the slice's own, refilled at every call: the circuit
   evaluation overwrites each C and G block whole. *)
let linearize_at t buf ~t2 ~scale ~with_c y ~off =
  load t buf y ~off;
  let cs, b_blocks =
    match buf.last with
    | Some (lin, b_blocks) -> (lin.c_blocks, b_blocks)
    | None ->
      let blocks () = Array.init t.n1 (fun _ -> Mat.zeros t.n t.n) in
      (blocks (), blocks ())
  in
  let bordered = match t.omega with Unknown _ -> true | Fixed _ -> false in
  for j = 0 to t.n1 - 1 do
    let cj = cs.(j) and bj = b_blocks.(j) in
    t.dae.System.eval_into ~t:t2 buf.states.(j)
      ~q:(if bordered then buf.qs.(j) else [||])
      ~f:[||] ~c:cj ~g:bj;
    if with_c then
      for i = 0 to t.n - 1 do
        for l = 0 to t.n - 1 do
          bj.(i).(l) <- cj.(i).(l) +. (scale *. bj.(i).(l))
        done
      done
  done;
  let border =
    match t.omega with
    | Fixed _ -> None
    | Unknown row ->
      charges_t1 t buf;
      let col =
        match buf.last with
        | Some ({ border = Some b; _ }, _) -> b.col
        | _ -> Array.make t.nd 0.
      in
      for i = 0 to t.nd - 1 do
        col.(i) <- scale *. buf.q_t1.(i)
      done;
      Some { col; row }
  in
  let alpha = scale *. omega_at t y ~off in
  let op =
    match buf.last with
    | Some (lin, _) -> Structured.refill_op lin.op ~alpha
    | None -> Structured.make_op ~alpha ~d:t.d ~c_blocks:cs ~b_blocks
  in
  let lin = { op; c_blocks = cs; border } in
  buf.last <- Some (lin, b_blocks);
  lin

(* The slice matrix into the square of [jac] at (off, off), every
   entry of it, the bordered corner included: a buffer the in-place LU
   has factored holds its rows permuted. *)
let block_into ~off lin jac =
  Structured.dense_into ~off lin.op jac;
  match lin.border with
  | None -> ()
  | Some b ->
    let nd = Structured.dim lin.op in
    let corner = jac.(off + nd) in
    for i = 0 to nd - 1 do
      jac.(off + i).(off + nd) <- b.col.(i);
      corner.(off + i) <- b.row.(i)
    done;
    corner.(off + nd) <- 0.

let dense_into lin jac = block_into ~off:0 lin jac

let apply_into lin v out =
  match lin.border with
  | None -> Structured.apply_into lin.op v out
  | Some b -> Structured.apply_bordered_into lin.op ~border_col:b.col ~border_row:b.row v out

type precond = {
  mutable pc : Structured.precond option;
  mutable bp : Structured.bordered option;
  mutable apply : (Vec.t -> Vec.t -> unit) option;  (* the kept build's apply *)
}

let precond () = { pc = None; bp = None; apply = None }
let drop kept = kept.apply <- None

(* Every slice has a border when the first has: [omega] is one for the
   whole system.  A build that raises keeps no apply: it may have
   overwritten the buffers part way. *)
let build ?coupling kept lins =
  kept.apply <- None;
  let pc = Structured.make_precond ?into:kept.pc ?coupling (Array.map (fun lin -> lin.op) lins) in
  kept.pc <- Some pc;
  match lins.(0).border with
  | None -> kept.apply <- Some (Structured.precond_apply_into pc)
  | Some _ ->
    let border f = Array.map (fun lin -> f (Option.get lin.border)) lins in
    let bp =
      Structured.make_bordered ?into:kept.bp pc
        ~cols:(border (fun b -> b.col))
        ~rows:(border (fun b -> b.row))
    in
    kept.bp <- Some bp;
    kept.apply <- Some (Structured.bordered_apply_into bp)

let with_precond ?coupling kept lins solve =
  let fresh () =
    match build ?coupling kept lins with
    | exception (Cx.Clu.Singular _ | Structured.Bordered_singular _ | Failure _) -> None
    | () -> Option.bind kept.apply solve
  in
  match kept.apply with
  | None -> fresh ()
  | Some m_inv -> ( match solve m_inv with Some _ as x -> x | None -> fresh ())

(* ---------- theta step in t2 ---------- *)

type step = {
  sys : t;
  t2 : float;
  h : float;
  theta : float;
  q0 : Vec.t;
  g0 : Vec.t;
  mutable at : int;  (* [sys.writes] after this step's last residual, or -1 *)
}

let charges t ~t2 states =
  let q = Array.make t.nd 0. and qj = Array.make t.n 0. in
  Array.iteri
    (fun j x ->
      t.dae.System.eval_into ~t:t2 x ~q:qj ~f:[||] ~c:[||] ~g:[||];
      Array.blit qj 0 q (j * t.n) t.n)
    states;
  q

let step t ~t2 ~h ~theta ~q0 ~g0 = { sys = t; t2; h; theta; q0; g0; at = -1 }

let step_residual_into st y dst =
  let t = st.sys in
  t.writes <- t.writes + 1;
  st.at <- t.writes;
  g_at t t.buf ~t2:st.t2 y ~off:0 t.g ~dst_off:0;
  let h = st.h and theta = st.theta and q = t.buf.q_flat and q0 = st.q0 in
  for idx = 0 to t.nd - 1 do
    dst.(idx) <-
      q.(idx) -. q0.(idx)
      +. (h *. theta *. t.g.(idx))
      +. (if theta < 1. then h *. (1. -. theta) *. st.g0.(idx) else 0.)
  done;
  phase_at t y ~off:0 dst ~dst_off:0

let step_point st =
  let t = st.sys in
  if st.at <> t.writes then
    invalid_arg "Dae.Semidisc.step_point: the system was evaluated since the step's last residual";
  (Array.copy t.g, Array.copy t.buf.q_flat)

let step_linearize st y =
  let t = st.sys in
  t.writes <- t.writes + 1;
  linearize_at t t.buf ~t2:st.t2 ~scale:(st.h *. st.theta) ~with_c:true y ~off:0

(* ---------- periodic in t2 ---------- *)

type periodic = {
  psys : t;
  p2 : float;
  n2 : int;
  d2 : Mat.t;
  bufs : buf array;
  cu : Vec.t array;  (* per-slice blockdiag(C) v, for the product's slow coupling *)
  seg_in : Vec.t;  (* one slice of the product's input ... *)
  seg_out : Vec.t;  (* ... and of its output *)
}

let periodic t ~p2 ~d2 =
  let n2 = Mat.rows d2 in
  {
    psys = t;
    p2;
    n2;
    d2;
    bufs = Array.init n2 (fun _ -> new_buf ~n1:t.n1 ~n:t.n);
    cu = Array.init n2 (fun _ -> Array.make t.nd 0.);
    seg_in = Array.make (size t) 0.;
    seg_out = Array.make (size t) 0.;
  }

let slice_t2 p m = p.p2 *. float_of_int m /. float_of_int p.n2

let periodic_residual p y =
  let t = p.psys in
  let bs = size t in
  let res = Array.make (p.n2 * bs) 0. in
  for m = 0 to p.n2 - 1 do
    g_at t p.bufs.(m) ~t2:(slice_t2 p m) y ~off:(m * bs) res ~dst_off:(m * bs);
    phase_at t y ~off:(m * bs) res ~dst_off:(m * bs)
  done;
  (* slow derivative: (1/p2) sum_q d2_mq q(X^q_j), grid point j across slices *)
  for m = 0 to p.n2 - 1 do
    let d2m = p.d2.(m) in
    for j = 0 to t.n1 - 1 do
      for i = 0 to t.n - 1 do
        let s = ref 0. in
        for q = 0 to p.n2 - 1 do
          s := !s +. (d2m.(q) *. p.bufs.(q).qs.(j).(i))
        done;
        let idx = (m * bs) + (j * t.n) + i in
        res.(idx) <- res.(idx) +. (!s /. p.p2)
      done
    done
  done;
  res

let periodic_linearize p y =
  let t = p.psys in
  Array.init p.n2 (fun m ->
      linearize_at t p.bufs.(m) ~t2:(slice_t2 p m) ~scale:1. ~with_c:false y ~off:(m * size t))

(* Every entry of [jac] is written: slice m's rows are cleared, its
   block placed on the diagonal, then the slow coupling added, so a
   buffer the in-place LU has factored (rows permuted, stale) can be
   refilled. *)
let periodic_dense_into p lins jac =
  let t = p.psys in
  let bs = size t and n = t.n in
  let dim = p.n2 * bs in
  if Array.length lins <> p.n2 || Mat.rows jac <> dim
     || Array.exists (fun row -> Array.length row <> dim) jac
  then invalid_arg "Dae.Semidisc.periodic_dense_into: expected n2 slices and an n2 size square";
  Array.iteri
    (fun m lin ->
      for r = m * bs to ((m + 1) * bs) - 1 do
        Array.fill jac.(r) 0 dim 0.
      done;
      block_into ~off:(m * bs) lin jac)
    lins;
  for m = 0 to p.n2 - 1 do
    for q = 0 to p.n2 - 1 do
      let dmq = p.d2.(m).(q) /. p.p2 in
      if dmq <> 0. then
        for j = 0 to t.n1 - 1 do
          let cj = lins.(q).c_blocks.(j) in
          for i = 0 to n - 1 do
            let row = jac.((m * bs) + (j * n) + i) in
            for l = 0 to n - 1 do
              let col = (q * bs) + (j * n) + l in
              row.(col) <- row.(col) +. (dmq *. cj.(i).(l))
            done
          done
        done
    done
  done

let periodic_apply_into p lins v out =
  let bs = size p.psys and nd = p.psys.nd in
  let cu = p.cu and seg = p.seg_in and oseg = p.seg_out in
  for q = 0 to p.n2 - 1 do
    Array.blit v (q * bs) seg 0 bs;
    Structured.block_mul_into lins.(q).c_blocks ~src:seg ~dst:cu.(q)
  done;
  for m = 0 to p.n2 - 1 do
    Array.blit v (m * bs) seg 0 bs;
    apply_into lins.(m) seg oseg;
    Array.blit oseg 0 out (m * bs) bs;
    for q = 0 to p.n2 - 1 do
      let dmq = p.d2.(m).(q) /. p.p2 in
      if dmq <> 0. then
        for idx = 0 to nd - 1 do
          out.((m * bs) + idx) <- out.((m * bs) + idx) +. (dmq *. cu.(q).(idx))
        done
    done
  done
