type t = float array

let make n x = Array.make n x
let zeros n = Array.make n 0.
let init = Array.init
let copy = Array.copy

let check_same_length name u v =
  if Array.length u <> Array.length v then
    invalid_arg (Printf.sprintf "Vec.%s: length %d <> %d" name (Array.length u) (Array.length v))

let blit ~src ~dst =
  check_same_length "blit" src dst;
  Array.blit src 0 dst 0 (Array.length src)

let linspace a b n =
  if n < 2 then invalid_arg "Vec.linspace: n < 2";
  let h = (b -. a) /. float_of_int (n - 1) in
  Array.init n (fun i -> a +. (float_of_int i *. h))

let add u v =
  check_same_length "add" u v;
  Array.mapi (fun i ui -> ui +. v.(i)) u

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
   element), so they allocate nothing in the Krylov hot path.  [dot],
   [norm1] and [sum] are Kahan-compensated, all in index order.  [dot]
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

let norm1 v =
  let s = ref 0. and c = ref 0. in
  for i = 0 to Array.length v - 1 do
    let y = Float.abs v.(i) -. !c in
    let t = !s +. y in
    c := t -. !s -. y;
    s := t
  done;
  !s

let rms v =
  let n = Array.length v in
  if n = 0 then 0. else norm2 v /. sqrt (float_of_int n)

let dist_inf u v =
  check_same_length "dist_inf" u v;
  let m = ref 0. in
  for i = 0 to Array.length u - 1 do
    m := Float.max !m (Float.abs (u.(i) -. v.(i)))
  done;
  !m

let map = Array.map

let map2 f u v =
  check_same_length "map2" u v;
  Array.mapi (fun i ui -> f ui v.(i)) u

let max_abs_index v =
  if Array.length v = 0 then invalid_arg "Vec.max_abs_index: empty";
  let best = ref 0 in
  for i = 1 to Array.length v - 1 do
    if Float.abs v.(i) > Float.abs v.(!best) then best := i
  done;
  !best

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

let approx_equal ?(tol = 1e-9) u v =
  Array.length u = Array.length v && dist_inf u v <= tol

let pp ppf v =
  Format.fprintf ppf "[@[";
  Array.iteri
    (fun i x ->
      if i > 0 then Format.fprintf ppf ";@ ";
      Format.fprintf ppf "%.6g" x)
    v;
  Format.fprintf ppf "@]]"
