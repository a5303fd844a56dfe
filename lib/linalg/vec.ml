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

let scale_inplace a v =
  for i = 0 to Array.length v - 1 do
    v.(i) <- a *. v.(i)
  done

let axpy ~a ~x y =
  check_same_length "axpy" x y;
  for i = 0 to Array.length x - 1 do
    y.(i) <- y.(i) +. (a *. x.(i))
  done

(* The reductions below are written out as plain loops (no closure per
   element), so they allocate nothing in the Krylov hot path.  [dot]
   and [sum] are Kahan-compensated, all in index order.  [dot]
   is inlined so that [norm2] takes its square root unboxed. *)
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
