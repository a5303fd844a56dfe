(* Comparison helpers and allocating wrappers the tests share.  lib/
   exports only what programs call, so these test-side conveniences
   live here; a suite that opens [Linalg] opens [Testkit] after it. *)

module Vec = struct
  include Linalg.Vec

  let approx_equal ?(tol = 1e-9) u v =
    Array.length u = Array.length v && Array.for_all2 (fun a b -> Float.abs (a -. b) <= tol) u v
end

module Mat = struct
  include Linalg.Mat

  let diag v = init (Array.length v) (Array.length v) (fun i j -> if i = j then v.(i) else 0.)
  let transpose m = init (cols m) (rows m) (fun i j -> m.(j).(i))
  let matvec_into m v ~dst = Array.blit (matvec m v) 0 dst 0 (Array.length dst)

  let approx_equal ?(tol = 1e-9) a b =
    Array.length a = Array.length b && Array.for_all2 (Vec.approx_equal ~tol) a b
end

module Structured = struct
  include Linalg.Structured

  let apply op v =
    let out = Array.make (dim op) 0. in
    apply_into op v out;
    out

  let apply_bordered op ~border_col ~border_row v =
    let out = Array.make (dim op + 1) 0. in
    apply_bordered_into op ~border_col ~border_row v out;
    out
end

let cvec_approx_equal ?(tol = 1e-9) u v =
  Array.length u = Array.length v
  && Array.for_all2 (fun a b -> Complex.norm (Complex.sub a b) <= tol) u v

(* the inverse transform, through the forward one:
   ifft x = conj (fft (conj x)) / n *)
let ifft x =
  let n = Array.length x in
  Array.map
    (fun z -> Linalg.Cx.scale (1. /. float_of_int n) (Complex.conj z))
    (Fourier.Fft.fft (Array.map Complex.conj x))

(* [parse_deck text] parses an in-memory netlist through
   [Circuit.Parser.parse_file], the path the CLI takes *)
let parse_deck text =
  let path = Filename.temp_file "deck" ".cir" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Circuit.Parser.parse_file path)

(* [cos_slices n] is [n] slices of xhat = cos (2 pi t1), one state on
   9 t1 points *)
let cos_slices n =
  Array.make n (Array.init 9 (fun j -> [| cos (2. *. Float.pi *. float_of_int j /. 9.) |]))

(* [warp_of_function ~t0 ~t1 ~n omega] samples an analytic rate on [n]
   uniform points, over {!cos_slices} *)
let warp_of_function ~t0 ~t1 ~n omega =
  let times = Linalg.Vec.linspace t0 t1 n in
  Sigproc.Warp.make ~t2:times ~omega:(Linalg.Vec.map omega times) ~slices:(cos_slices n) ()

(* [linear_interp times values t] interpolates the samples linearly,
   holding the end values outside [times] *)
let linear_interp times values t =
  let n = Array.length times in
  if t <= times.(0) then values.(0)
  else if t >= times.(n - 1) then values.(n - 1)
  else begin
    let i = ref 0 in
    while times.(!i + 1) <= t do incr i done;
    let ta = times.(!i) and tb = times.(!i + 1) in
    values.(!i) +. ((values.(!i + 1) -. values.(!i)) *. (t -. ta) /. (tb -. ta))
  end

let json_exn s =
  match Wampde_obs.Json.parse s with Ok j -> j | Error m -> failwith ("json: " ^ m)

(* [lu_one_column a] is the textbook one-column Doolittle loop with
   partial pivoting, the oracle for [Linalg.Lu.factor_into]: it
   factors [a] in place (row arrays swapped, L below the unit
   diagonal, U on and above) and returns the row permutation, or
   raises [Linalg.Lu.Singular k] at the first zero pivot.  Each pivot
   step sweeps the whole trailing matrix once. *)
let lu_one_column a =
  let n = Array.length a in
  let perm = Array.init n Fun.id in
  for k = 0 to n - 1 do
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs a.(i).(k) > Float.abs a.(!pivot).(k) then pivot := i
    done;
    let p = !pivot in
    if p <> k then begin
      let tmp = a.(k) in
      a.(k) <- a.(p);
      a.(p) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(p);
      perm.(p) <- tp
    end;
    let pkk = a.(k).(k) in
    if pkk = 0. then raise (Linalg.Lu.Singular k);
    let rk = a.(k) in
    for i = k + 1 to n - 1 do
      let ri = a.(i) in
      let m = ri.(k) /. pkk in
      ri.(k) <- m;
      if m <> 0. then
        for j = k + 1 to n - 1 do
          ri.(j) <- ri.(j) -. (m *. rk.(j))
        done
    done
  done;
  perm

(* [lu_substitute a perm b] is the plain row-by-row substitution, the
   oracle for [Linalg.Lu.solve_into]: [a] and [perm] as
   [Linalg.Lu.factor_into] left them (L below the unit diagonal, U on
   and above, rows permuted by [perm]).  Forward, each row subtracts
   its terms in ascending column order; back, in descending order,
   the last column first. *)
let lu_substitute a perm b =
  let n = Array.length a in
  let x = Array.init n (fun i -> b.(perm.(i))) in
  for i = 1 to n - 1 do
    let s = ref x.(i) in
    for j = 0 to i - 1 do
      s := !s -. (a.(i).(j) *. x.(j))
    done;
    x.(i) <- !s
  done;
  for i = n - 1 downto 0 do
    let s = ref x.(i) in
    for j = n - 1 downto i + 1 do
      s := !s -. (a.(i).(j) *. x.(j))
    done;
    x.(i) <- !s /. a.(i).(i)
  done;
  x

(* [structured_dense_naive ~off ~alpha ~d ~c_blocks ~b_blocks jac] is
   the block-by-block assembly of [alpha (D (x) C) + blockdiag(B)] into
   the square of [jac] at (off, off), the oracle for
   [Linalg.Structured.dense_into]: block (j, k) is alpha d_jk C_k,
   then B_j is added to block (j, j). *)
let structured_dense_naive ~off ~alpha ~d ~c_blocks ~b_blocks jac =
  let n1 = Array.length d and n = Array.length c_blocks.(0) in
  for j = 0 to n1 - 1 do
    for k = 0 to n1 - 1 do
      let scale = alpha *. d.(j).(k) in
      let ck = c_blocks.(k) in
      for i = 0 to n - 1 do
        for l = 0 to n - 1 do
          jac.(off + (j * n) + i).(off + (k * n) + l) <- scale *. ck.(i).(l)
        done
      done
    done;
    let bj = b_blocks.(j) in
    for i = 0 to n - 1 do
      let row = jac.(off + (j * n) + i) in
      for l = 0 to n - 1 do
        row.(off + (j * n) + l) <- row.(off + (j * n) + l) +. bj.(i).(l)
      done
    done
  done

(* [kron_eye_naive d ~n src] is (D (x) I_n) src by the triple loop,
   the oracle for [Linalg.Mat.kron_eye_into]: output (j, i) sums
   d_jk src_(k n + i) over k in ascending order from 0. *)
let kron_eye_naive d ~n src =
  let n1 = Array.length d in
  let dst = Array.make (n1 * n) 0. in
  for j = 0 to n1 - 1 do
    for i = 0 to n - 1 do
      let s = ref 0. in
      for k = 0 to n1 - 1 do
        s := !s +. (d.(j).(k) *. src.((k * n) + i))
      done;
      dst.((j * n) + i) <- !s
    done
  done;
  dst

(* [matvec_one_row m v] and [tmatvec_one_row m v] are the plain
   one-row loops, the oracles for [Linalg.Mat.matvec] and
   [Linalg.Mat.tmatvec]: row i of [m v] sums m_ij v_j over j in
   ascending order from 0.; [transpose m * v] adds row i's terms
   m_ij v_i into every output j, rows in ascending order, skipping a
   row whose v_i is zero. *)
let matvec_one_row m v =
  Array.map
    (fun row ->
      let s = ref 0. in
      for j = 0 to Array.length row - 1 do
        s := !s +. (row.(j) *. v.(j))
      done;
      !s)
    m

let tmatvec_one_row m v =
  let dst = Array.make (Linalg.Mat.cols m) 0. in
  for i = 0 to Array.length m - 1 do
    let row = m.(i) and vi = v.(i) in
    if vi <> 0. then
      for j = 0 to Array.length row - 1 do
        dst.(j) <- dst.(j) +. (row.(j) *. vi)
      done
  done;
  dst

(* [quasi_long_start dae ~options ~p2 ~n2 ~init] is the quasiperiodic
   solve from a long, fine warm-up: 5 slow periods of fixed envelope
   steps at 0.5 on the size-based path, each slice of the guess the
   accepted step nearest to its time in the last period.  The oracle
   of the tests that [Quasiperiodic.from_orbit]'s slice-aligned
   warm-up, refined or not, reaches the same steady state. *)
let quasi_long_start dae ~(options : Wampde.Envelope.options) ~p2 ~n2 ~init =
  let t_warm = 5. *. p2 in
  let env =
    Wampde.Envelope.simulate dae
      ~options:{ options with solver = Linalg.Structured.auto }
      ~t2_end:t_warm ~h2:0.5 ~init
  in
  let t2s = env.Wampde.Envelope.t2 in
  let nearest t =
    let best = ref 0 in
    Array.iteri
      (fun i ti -> if Float.abs (ti -. t) < Float.abs (t2s.(!best) -. t) then best := i)
      t2s;
    !best
  in
  let t2 = Array.init n2 (fun m -> p2 *. float_of_int m /. float_of_int n2) in
  let idx = Array.map (fun t -> nearest (t_warm -. p2 +. t)) t2 in
  let guess =
    {
      Wampde.Quasiperiodic.p2;
      t2;
      omega = Array.map (fun i -> env.Wampde.Envelope.omega.(i)) idx;
      slices = Array.map (fun i -> env.Wampde.Envelope.slices.(i)) idx;
    }
  in
  Wampde.Quasiperiodic.solve dae ~options ~p2 ~n2 ~guess ()
