type t = float array

let init = Array.init

let check_same_length name u v =
  if Array.length u <> Array.length v then
    invalid_arg (Printf.sprintf "Vec.%s: length %d <> %d" name (Array.length u) (Array.length v))

let linspace a b n =
  if n < 2 then invalid_arg "Vec.linspace: n < 2";
  let h = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (float_of_int i *. h))

let sub u v =
  check_same_length "sub" u v;
  Array.mapi (fun i ui -> ui -. v.(i)) u

let scale a v = Array.map (fun x -> a *. x) v

(* [scale_inplace] and [axpy] run in the Krylov hot path: after the
   one length check, four entries a round, unchecked.  Each entry is
   the plain loop's operation on the same operands, and every entry is
   loaded before it is used, as the checked loop loads it, so the
   compiler keeps the plain loop's operand order: no bit changes, not
   even which of two NaN payloads survives. *)
let scale_inplace a v =
  let n = Array.length v in
  for k = 0 to (n / 4) - 1 do
    let j = 4 * k in
    let v0 = Array.unsafe_get v j and v1 = Array.unsafe_get v (j + 1) in
    let v2 = Array.unsafe_get v (j + 2) and v3 = Array.unsafe_get v (j + 3) in
    Array.unsafe_set v j (a *. v0);
    Array.unsafe_set v (j + 1) (a *. v1);
    Array.unsafe_set v (j + 2) (a *. v2);
    Array.unsafe_set v (j + 3) (a *. v3)
  done;
  for j = n land -4 to n - 1 do
    let vj = Array.unsafe_get v j in
    Array.unsafe_set v j (a *. vj)
  done

let axpy ~a ~x y =
  check_same_length "axpy" x y;
  let n = Array.length x in
  for k = 0 to (n / 4) - 1 do
    let j = 4 * k in
    let x0 = Array.unsafe_get x j and x1 = Array.unsafe_get x (j + 1) in
    let x2 = Array.unsafe_get x (j + 2) and x3 = Array.unsafe_get x (j + 3) in
    let y0 = Array.unsafe_get y j and y1 = Array.unsafe_get y (j + 1) in
    let y2 = Array.unsafe_get y (j + 2) and y3 = Array.unsafe_get y (j + 3) in
    Array.unsafe_set y j (y0 +. (a *. x0));
    Array.unsafe_set y (j + 1) (y1 +. (a *. x1));
    Array.unsafe_set y (j + 2) (y2 +. (a *. x2));
    Array.unsafe_set y (j + 3) (y3 +. (a *. x3))
  done;
  for j = n land -4 to n - 1 do
    let xj = Array.unsafe_get x j and yj = Array.unsafe_get y j in
    Array.unsafe_set y j (yj +. (a *. xj))
  done

(* The reductions below are written out as plain loops (no closure per
   element), so they allocate nothing.  [dot] and [sum] are
   Kahan-compensated, all in index order: trust region's models and
   every [norm2] rely on them.  GMRES's Gram-Schmidt does not: its
   inner products take a private four-accumulator plain sum, since the
   compensated loop is bound by the latency of its dependent adds.
   [dot] is inlined so that [norm2] takes its square root unboxed. *)
let[@inline] dot u v =
  check_same_length "dot" u v;
  let s = ref 0. and c = ref 0. in
  for i = 0 to Array.length u - 1 do
    let y = (u.(i) *. v.(i)) -. !c in
    let t = !s +. y in
    c := t -. !s -. y;
    s := t
  done;
  !s

let norm2 v = sqrt (dot v v)

let norm_inf v =
  let m = ref 0. in
  for i = 0 to Array.length v - 1 do
    m := Float.max !m (Float.abs v.(i))
  done;
  !m

let map = Array.map

let map2 f u v =
  check_same_length "map2" u v;
  Array.mapi (fun i ui -> f ui v.(i)) u

let sum v =
  let s = ref 0. and c = ref 0. in
  for i = 0 to Array.length v - 1 do
    let y = v.(i) -. !c in
    let t = !s +. y in
    c := t -. !s -. y;
    s := t
  done;
  !s

let mean v =
  let n = Array.length v in
  if n = 0 then Float.nan else sum v /. float_of_int n

let weighted_norm ~scale v =
  check_same_length "weighted_norm" scale v;
  let m = ref 0. in
  for i = 0 to Array.length v - 1 do
    m := Float.max !m (Float.abs (v.(i) /. scale.(i)))
  done;
  !m
