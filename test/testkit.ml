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

(* [warp_of_function ~t0 ~t1 ~n omega] samples an analytic rate on [n]
   uniform points *)
let warp_of_function ~t0 ~t1 ~n omega =
  let times = Linalg.Vec.linspace t0 t1 n in
  Sigproc.Warp.of_samples ~times ~omega:(Linalg.Vec.map omega times)

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
   and above, rows permuted by [perm]).  Each row subtracts its terms
   in ascending column order, forward then back. *)
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
    for j = i + 1 to n - 1 do
      s := !s -. (a.(i).(j) *. x.(j))
    done;
    x.(i) <- !s /. a.(i).(i)
  done;
  x

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
