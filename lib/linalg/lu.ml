module Obs = Wampde_obs

type t = { lu : float array array; perm : int array }

exception Singular of int

let c_factor = Obs.Metrics.counter "lu.factor"
let h_dim = Obs.Metrics.histogram "lu.dim"
let c_solve = Obs.Metrics.counter "lu.solve"

(* Partial pivoting for column [k]: swap the row of largest magnitude
   among rows [k..n-1] into row [k] (exchanging the row arrays), then
   raise [Singular k] on a zero pivot.  Ints and arrays only, so no
   float is boxed. *)
let pivot lu perm n k =
  let p = ref k in
  for i = k + 1 to n - 1 do
    if Float.abs lu.(i).(k) > Float.abs lu.(!p).(k) then p := i
  done;
  let p = !p in
  if p <> k then begin
    let tmp = lu.(k) in
    lu.(k) <- lu.(p);
    lu.(p) <- tmp;
    let tp = perm.(k) in
    perm.(k) <- perm.(p);
    perm.(p) <- tp
  end;
  if lu.(k).(k) = 0. then raise (Singular k)

(* Doolittle factorization with partial pivoting, in place: row swaps
   exchange the row arrays of [a], after which [a] stores L (unit
   diagonal, below) and U (on and above the diagonal).

   Right-looking, two pivot columns per sweep of the trailing matrix:
   column k is pivoted and its multipliers are applied to column k+1
   only; column k+1 is pivoted and step k is applied to the new row
   k+1; then every trailing row takes both steps in one pass,
   r_ij <- (r_ij - m0 r_kj) - m1 r_(k+1)j, so the trailing matrix is
   read and written once per two columns.  The order of subtractions
   and the zero-multiplier skips are the one-column loop's, which
   keeps the result bitwise equal to it (see lu.mli). *)
let factor_into a ~perm =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Lu.factor: matrix not square";
  if Array.length perm <> n then invalid_arg "Lu.factor_into: perm length mismatch";
  Obs.Metrics.incr c_factor;
  Obs.Metrics.observe h_dim (float_of_int n);
  if Obs.Events.active () then Obs.Events.emit (Obs.Events.Lu_factor { n });
  let lu = a in
  for i = 0 to n - 1 do
    perm.(i) <- i
  done;
  let k = ref 0 in
  while !k + 1 < n do
    let k0 = !k in
    let k1 = k0 + 1 in
    pivot lu perm n k0;
    let r0 = lu.(k0) in
    let p0 = Array.unsafe_get r0 k0 and u01 = Array.unsafe_get r0 k1 in
    (* step k0 on column k1 only *)
    for i = k1 to n - 1 do
      let ri = lu.(i) in
      let m = Array.unsafe_get ri k0 /. p0 in
      Array.unsafe_set ri k0 m;
      if m <> 0. then Array.unsafe_set ri k1 (Array.unsafe_get ri k1 -. (m *. u01))
    done;
    pivot lu perm n k1;
    (* step k0 on the pivot row's tail *)
    let r1 = lu.(k1) in
    let m = Array.unsafe_get r1 k0 in
    if m <> 0. then
      for j = k1 + 1 to n - 1 do
        Array.unsafe_set r1 j (Array.unsafe_get r1 j -. (m *. Array.unsafe_get r0 j))
      done;
    let p1 = Array.unsafe_get r1 k1 in
    (* steps k0 and k1 on every trailing row in one pass *)
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
    done;
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
