module Obs = Wampde_obs

type t = { lu : float array array; perm : int array }

exception Singular of int

let c_factor = Obs.Metrics.counter "lu.factor"
let h_dim = Obs.Metrics.histogram "lu.dim"
let c_solve = Obs.Metrics.counter "lu.solve"

(* Doolittle factorization with partial pivoting, in place: row swaps
   exchange the row arrays of [a], after which [a] stores L (unit
   diagonal, below) and U (on and above the diagonal). *)
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
  for k = 0 to n - 1 do
    let pivot = ref k in
    for i = k + 1 to n - 1 do
      if Float.abs lu.(i).(k) > Float.abs lu.(!pivot).(k) then pivot := i
    done;
    if !pivot <> k then begin
      let tmp = lu.(k) in
      lu.(k) <- lu.(!pivot);
      lu.(!pivot) <- tmp;
      let tp = perm.(k) in
      perm.(k) <- perm.(!pivot);
      perm.(!pivot) <- tp
    end;
    let pkk = lu.(k).(k) in
    if pkk = 0. then raise (Singular k);
    let rk = lu.(k) in
    for i = k + 1 to n - 1 do
      let ri = lu.(i) in
      let m = Array.unsafe_get ri k /. pkk in
      Array.unsafe_set ri k m;
      if m <> 0. then
        for j = k + 1 to n - 1 do
          Array.unsafe_set ri j
            (Array.unsafe_get ri j -. (m *. Array.unsafe_get rk j))
        done
    done
  done;
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
  (* forward substitution, L has unit diagonal *)
  for i = 1 to n - 1 do
    let row = lu.(i) in
    let s = ref (Array.unsafe_get x i) in
    for j = 0 to i - 1 do
      s := !s -. (Array.unsafe_get row j *. Array.unsafe_get x j)
    done;
    Array.unsafe_set x i !s
  done;
  (* back substitution *)
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
