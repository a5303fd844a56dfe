module Obs = Wampde_obs

type t = { lu : float array array; perm : int array }

exception Singular of int

let c_factor = Obs.Metrics.counter "lu.factor"
let h_dim = Obs.Metrics.histogram "lu.dim"
let c_solve = Obs.Metrics.counter "lu.solve"

(* Row exchange for column [k], [p] the row of largest magnitude among
   rows [k..n-1]: swap row [p] into row [k] (exchanging the row arrays),
   then raise [Singular k] on a zero pivot.  Ints and arrays only, so
   no float is boxed. *)
let exchange lu perm k p =
  if p <> k then begin
    let tmp = lu.(k) in
    lu.(k) <- lu.(p);
    lu.(p) <- tmp;
    let tp = perm.(k) in
    perm.(k) <- perm.(p);
    perm.(p) <- tp
  end;
  if lu.(k).(k) = 0. then raise (Singular k)

(* Partial pivoting for column [k]: the first row of largest magnitude
   among rows [k..n-1] is exchanged into row [k].  A row replaces the
   best so far only if [|r_ik| > |r_pk|], so a NaN below row [k] is
   never chosen and a NaN in row [k] is never replaced. *)
let pivot lu perm n k =
  let p = ref k and best = ref (Float.abs lu.(k).(k)) in
  for i = k + 1 to n - 1 do
    let a = Float.abs (Array.unsafe_get lu.(i) k) in
    if a > !best then begin
      p := i;
      best := a
    end
  done;
  exchange lu perm k !p

(* Steps k0 and k0+1 on every trailing row i > k0+1 in one pass,
   r_ij <- (r_ij - m0 r_k0,j) - m1 r_k1,j, after the column-k1 pass and
   the second pivot: m0 is already in column k0, m1 = r_i,k1 / p1 is
   stored into column k1, and a zero multiplier skips its term as the
   one-column loop does.  [sweep_c] is the same loop in C
   (lu_stubs.c), which the C compiler vectorizes, at AVX2 width where
   the CPU has it.  Inlined: a call costs 2-3 % of a 4 x 4
   factorization. *)
let[@inline] sweep_ocaml lu k0 n =
  let k1 = k0 + 1 in
  let r0 = lu.(k0) and r1 = lu.(k1) in
  let p1 = Array.unsafe_get r1 k1 in
  for i = k1 + 1 to n - 1 do
    let ri = lu.(i) in
    let m0 = Array.unsafe_get ri k0 in
    let m1 = Array.unsafe_get ri k1 /. p1 in
    Array.unsafe_set ri k1 m1;
    if m0 <> 0. then
      if m1 <> 0. then
        for j = k1 + 1 to n - 1 do
          Array.unsafe_set ri j
            (Array.unsafe_get ri j
            -. (m0 *. Array.unsafe_get r0 j)
            -. (m1 *. Array.unsafe_get r1 j))
        done
      else
        for j = k1 + 1 to n - 1 do
          Array.unsafe_set ri j (Array.unsafe_get ri j -. (m0 *. Array.unsafe_get r0 j))
        done
    else if m1 <> 0. then
      for j = k1 + 1 to n - 1 do
        Array.unsafe_set ri j (Array.unsafe_get ri j -. (m1 *. Array.unsafe_get r1 j))
      done
  done

external sweep_c : Mat.t -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "wampde_lu_sweep_byte" "wampde_lu_sweep"
[@@noalloc]

external has_nan : Mat.t -> (int[@untagged]) -> bool
  = "wampde_lu_has_nan_byte" "wampde_lu_has_nan"
[@@noalloc]

(* Below this many rows the C calls cost more than the sweep saves:
   timed in one process, alternating the OCaml sweep and the
   dispatched C one (the AVX2 clone on that host) on 4-20 rows, the
   OCaml sweep is faster up to 9 rows (4 x 4, the transient's
   Jacobian, by 10-27 %), the two tie at 10-11 and the C sweep wins
   from 12 on. *)
let c_min_dim = 10

(* the stubs read each row as a flat block of doubles *)
let () =
  if Obj.tag (Obj.repr (Array.make 1 0.)) <> Obj.double_array_tag then
    failwith "Linalg.Lu: the C sweep needs flat float arrays (OCaml configured without them)"

(* Doolittle factorization with partial pivoting, in place: row swaps
   exchange the row arrays of [a], after which [a] stores L (unit
   diagonal, below) and U (on and above the diagonal).

   Right-looking, two pivot columns per sweep of the trailing matrix:
   column k is pivoted and its multipliers are applied to column k+1
   only; column k+1 is pivoted and step k is applied to the new row
   k+1; then every trailing row takes both steps in one pass
   ([sweep_ocaml]/[sweep_c]), so the trailing matrix is read and
   written once per two columns.  The order of subtractions and the
   zero-multiplier skips are the one-column loop's, which keeps the
   result bitwise equal to it (see lu.mli).  A matrix holding a NaN on
   entry takes the OCaml sweep: the C one may commute a product, and
   NaN x NaN keeps its first operand's payload; without one, every NaN
   met is the default NaN that inf - inf, 0 inf and 0/0 make. *)
let factor_into a ~perm =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Lu.factor: matrix not square";
  if Array.length perm <> n then invalid_arg "Lu.factor_into: perm length mismatch";
  Obs.Metrics.incr c_factor;
  Obs.Metrics.observe h_dim (float_of_int n);
  let lu = a in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  (* the stubs read and write every row up to column n-1 unchecked *)
  if n >= c_min_dim then
    for i = 1 to n - 1 do
      if Array.length lu.(i) <> n then invalid_arg "Lu.factor: matrix not square"
    done;
  let in_c = n >= c_min_dim && not (has_nan lu n) in
  let k = ref 0 in
  while !k + 1 < n do
    let k0 = !k in
    let k1 = k0 + 1 in
    pivot lu perm n k0;
    let r0 = lu.(k0) in
    let p0 = Array.unsafe_get r0 k0 and u01 = Array.unsafe_get r0 k1 in
    (* step k0 on column k1 only, searching column k1's pivot row on
       the way, as [pivot] would once the pass is done *)
    let p = ref k1 and best = ref 0. in
    for i = k1 to n - 1 do
      let ri = lu.(i) in
      let m = Array.unsafe_get ri k0 /. p0 in
      Array.unsafe_set ri k0 m;
      if m <> 0. then Array.unsafe_set ri k1 (Array.unsafe_get ri k1 -. (m *. u01));
      let a = Float.abs (Array.unsafe_get ri k1) in
      if i = k1 || a > !best then begin
        p := i;
        best := a
      end
    done;
    exchange lu perm k1 !p;
    (* step k0 on the pivot row's tail *)
    let r1 = lu.(k1) in
    let m = Array.unsafe_get r1 k0 in
    if m <> 0. then
      for j = k1 + 1 to n - 1 do
        Array.unsafe_set r1 j (Array.unsafe_get r1 j -. (m *. Array.unsafe_get r0 j))
      done;
    if k1 + 1 < n then if in_c then sweep_c lu k0 n else sweep_ocaml lu k0 n;
    k := k0 + 2
  done;
  (* an odd n leaves the last column: no rows below it, only its pivot *)
  if !k < n then pivot lu perm n !k;
  { lu; perm }

let factor a = factor_into (Mat.copy a) ~perm:(Array.make (Mat.rows a) 0)

let solve_into { lu; perm } b x =
  let n = Array.length lu in
  if Array.length b <> n || Array.length x <> n then invalid_arg "Lu.solve: dimension mismatch";
  Obs.Metrics.incr c_solve;
  (* apply permutation *)
  for i = 0 to n - 1 do
    Array.unsafe_set x i b.(perm.(i))
  done;
  (* forward substitution, L has unit diagonal, four rows at a time:
     rows i..i+3 subtract their terms for j < i side by side, four
     independent chains instead of one, then finish the 4x4 unit-lower
     triangle in order.  Every row still subtracts its terms in
     ascending j from its own b entry, so x is bitwise the row-by-row
     loop's. *)
  let i = ref 0 in
  while !i + 4 <= n do
    let i0 = !i in
    let r0 = lu.(i0) and r1 = lu.(i0 + 1) and r2 = lu.(i0 + 2) and r3 = lu.(i0 + 3) in
    let s0 = ref (Array.unsafe_get x i0) and s1 = ref (Array.unsafe_get x (i0 + 1)) in
    let s2 = ref (Array.unsafe_get x (i0 + 2)) and s3 = ref (Array.unsafe_get x (i0 + 3)) in
    (* every product reads x.(j) from memory, as the row-by-row loop
       does: with both factors loaded the compiler keeps L's entry as
       the multiply's first operand, whose payload a NaN product
       carries, so even NaN bits match *)
    for j = 0 to i0 - 1 do
      s0 := !s0 -. (Array.unsafe_get r0 j *. Array.unsafe_get x j);
      s1 := !s1 -. (Array.unsafe_get r1 j *. Array.unsafe_get x j);
      s2 := !s2 -. (Array.unsafe_get r2 j *. Array.unsafe_get x j);
      s3 := !s3 -. (Array.unsafe_get r3 j *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i0 !s0;
    Array.unsafe_set x (i0 + 1) (!s1 -. (Array.unsafe_get r1 i0 *. Array.unsafe_get x i0));
    Array.unsafe_set x (i0 + 2)
      (!s2
      -. (Array.unsafe_get r2 i0 *. Array.unsafe_get x i0)
      -. (Array.unsafe_get r2 (i0 + 1) *. Array.unsafe_get x (i0 + 1)));
    Array.unsafe_set x (i0 + 3)
      (!s3
      -. (Array.unsafe_get r3 i0 *. Array.unsafe_get x i0)
      -. (Array.unsafe_get r3 (i0 + 1) *. Array.unsafe_get x (i0 + 1))
      -. (Array.unsafe_get r3 (i0 + 2) *. Array.unsafe_get x (i0 + 2)));
    i := i0 + 4
  done;
  for i = !i to n - 1 do
    let row = lu.(i) in
    let s = ref (Array.unsafe_get x i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get row j *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !s
  done;
  (* back substitution, one row at a time: row i's chain starts from
     the x just computed for row i+1, so rows cannot run side by side
     without reordering their sums *)
  for i = n - 1 downto 0 do
    let row = lu.(i) in
    let s = ref (Array.unsafe_get x i) in
    for j = i + 1 to n - 1 do
      s := !s -. (Array.unsafe_get row j *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i (!s /. Array.unsafe_get row i)
  done

let solve lu b =
  let x = Array.make (Array.length b) 0. in
  solve_into lu b x;
  x
