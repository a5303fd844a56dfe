type t = float array array

let zeros r c = Array.init r (fun _ -> Array.make c 0.)
let init r c f = Array.init r (fun i -> Array.init c (fun j -> f i j))
let identity n = init n n (fun i j -> if i = j then 1. else 0.)
let rows m = Array.length m
let cols m = if Array.length m = 0 then 0 else Array.length m.(0)
let copy m = Array.map Array.copy m

let scale s m = Array.map (fun row -> Array.map (fun x -> s *. x) row) m

let mul a b =
  if cols a <> rows b then
    invalid_arg (Printf.sprintf "Mat.mul: %dx%d * %dx%d" (rows a) (cols a) (rows b) (cols b));
  let r = rows a and n = cols a and c = cols b in
  let m = zeros r c in
  for i = 0 to r - 1 do
    let ai = a.(i) and mi = m.(i) in
    for k = 0 to n - 1 do
      let aik = ai.(k) in
      if aik <> 0. then begin
        let bk = b.(k) in
        for j = 0 to c - 1 do
          mi.(j) <- mi.(j) +. (aik *. bk.(j))
        done
      end
    done
  done;
  m

(* Each output keeps its own chain of adds over k in ascending order,
   exactly the naive triple loop's; four outputs i..i+3 of one row j
   run side by side, so four independent chains fill the FPU's
   pipeline instead of one chain waiting on each add's latency.  The
   interleaving changes no sum, so every result keeps its bits. *)
let kron_eye_into d ~n ~lo ~hi src dst =
  let n1 = rows d in
  if lo < 0 || hi > n1 || Array.length src < n1 * n || Array.length dst < hi * n then
    invalid_arg "Mat.kron_eye_into: dimension mismatch";
  for j = lo to hi - 1 do
    let dj = d.(j) and base = j * n in
    if Array.length dj <> n1 then invalid_arg "Mat.kron_eye_into: d is not square";
    let i = ref 0 in
    while !i + 4 <= n do
      let i0 = !i in
      let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
      (* src.(k n + i0), stepped by n rather than multiplied out *)
      let off = ref i0 in
      for k = 0 to n1 - 1 do
        let djk = Array.unsafe_get dj k and o = !off in
        s0 := !s0 +. (djk *. Array.unsafe_get src o);
        s1 := !s1 +. (djk *. Array.unsafe_get src (o + 1));
        s2 := !s2 +. (djk *. Array.unsafe_get src (o + 2));
        s3 := !s3 +. (djk *. Array.unsafe_get src (o + 3));
        off := o + n
      done;
      Array.unsafe_set dst (base + i0) !s0;
      Array.unsafe_set dst (base + i0 + 1) !s1;
      Array.unsafe_set dst (base + i0 + 2) !s2;
      Array.unsafe_set dst (base + i0 + 3) !s3;
      i := i0 + 4
    done;
    for i = !i to n - 1 do
      let s = ref 0. in
      for k = 0 to n1 - 1 do
        s := !s +. (Array.unsafe_get dj k *. Array.unsafe_get src ((k * n) + i))
      done;
      Array.unsafe_set dst (base + i) !s
    done
  done

let matvec_into m v ~dst =
  if cols m <> Array.length v then invalid_arg "Mat.matvec: dimension mismatch";
  if rows m <> Array.length dst then invalid_arg "Mat.matvec: bad destination";
  for i = 0 to rows m - 1 do
    let row = m.(i) in
    let s = ref 0. in
    for j = 0 to Array.length row - 1 do
      s := !s +. (row.(j) *. v.(j))
    done;
    dst.(i) <- !s
  done

let matvec m v =
  let dst = Array.make (rows m) 0. in
  matvec_into m v ~dst;
  dst

let tmatvec m v =
  if rows m <> Array.length v then invalid_arg "Mat.tmatvec: dimension mismatch";
  let dst = Array.make (cols m) 0. in
  for i = 0 to rows m - 1 do
    let row = m.(i) and vi = v.(i) in
    if vi <> 0. then
      for j = 0 to Array.length row - 1 do
        dst.(j) <- dst.(j) +. (row.(j) *. vi)
      done
  done;
  dst
