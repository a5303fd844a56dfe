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

(* The loops below read rows unchecked: every row must have [c]
   entries. *)
let check_rows name m c =
  for i = 0 to rows m - 1 do
    if Array.length (Array.unsafe_get m i) <> c then invalid_arg (name ^ ": ragged matrix")
  done

(* Rows i..i+3 run side by side, four independent chains of adds
   instead of one waiting on each add's latency; each row still sums
   its products over j in ascending order from 0., so the result is
   bitwise the one-row loop's.  Every product reads both factors from
   memory, which keeps the row's entry the multiply's first operand
   (the one whose payload a product of two NaNs carries), as in the
   one-row loop. *)
let matvec_into m v ~dst =
  let r = rows m and c = Array.length v in
  if cols m <> c then invalid_arg "Mat.matvec: dimension mismatch";
  if r <> Array.length dst then invalid_arg "Mat.matvec: bad destination";
  check_rows "Mat.matvec" m c;
  let i = ref 0 in
  while !i + 4 <= r do
    let i0 = !i in
    let r0 = m.(i0) and r1 = m.(i0 + 1) and r2 = m.(i0 + 2) and r3 = m.(i0 + 3) in
    let s0 = ref 0. and s1 = ref 0. and s2 = ref 0. and s3 = ref 0. in
    for j = 0 to c - 1 do
      s0 := !s0 +. (Array.unsafe_get r0 j *. Array.unsafe_get v j);
      s1 := !s1 +. (Array.unsafe_get r1 j *. Array.unsafe_get v j);
      s2 := !s2 +. (Array.unsafe_get r2 j *. Array.unsafe_get v j);
      s3 := !s3 +. (Array.unsafe_get r3 j *. Array.unsafe_get v j)
    done;
    dst.(i0) <- !s0;
    dst.(i0 + 1) <- !s1;
    dst.(i0 + 2) <- !s2;
    dst.(i0 + 3) <- !s3;
    i := i0 + 4
  done;
  for i = !i to r - 1 do
    let row = m.(i) in
    let s = ref 0. in
    for j = 0 to c - 1 do
      s := !s +. (Array.unsafe_get row j *. Array.unsafe_get v j)
    done;
    dst.(i) <- !s
  done

let matvec m v =
  let dst = Array.make (rows m) 0. in
  matvec_into m v ~dst;
  dst

(* Each dst_j takes its terms row by row in ascending i, as the
   one-row loop does; four rows with non-zero v_i are added in one
   pass, (((dst_j + r0_j v_i0) + r1_j v_i1) + r2_j v_i2) + r3_j v_i3,
   so dst is read and written once per four rows.  A zero v_i skips
   its row: that block of four then falls back to one row at a time.
   dst_j is bound before the adds and every v_i read from memory, which
   keeps the one-row loop's operand order (dst_j first in a sum, the
   row's entry first in a product), NaN payloads included. *)
let tmatvec m v =
  let r = rows m and c = cols m in
  if r <> Array.length v then invalid_arg "Mat.tmatvec: dimension mismatch";
  check_rows "Mat.tmatvec" m c;
  let dst = Array.make c 0. in
  let i = ref 0 in
  while !i < r do
    let i0 = !i in
    if i0 + 4 <= r && v.(i0) <> 0. && v.(i0 + 1) <> 0. && v.(i0 + 2) <> 0. && v.(i0 + 3) <> 0.
    then begin
      let r0 = m.(i0) and r1 = m.(i0 + 1) and r2 = m.(i0 + 2) and r3 = m.(i0 + 3) in
      for j = 0 to c - 1 do
        let d = ref (Array.unsafe_get dst j) in
        d := !d +. (Array.unsafe_get r0 j *. Array.unsafe_get v i0);
        d := !d +. (Array.unsafe_get r1 j *. Array.unsafe_get v (i0 + 1));
        d := !d +. (Array.unsafe_get r2 j *. Array.unsafe_get v (i0 + 2));
        d := !d +. (Array.unsafe_get r3 j *. Array.unsafe_get v (i0 + 3));
        Array.unsafe_set dst j !d
      done;
      i := i0 + 4
    end
    else begin
      let row = m.(i0) in
      if v.(i0) <> 0. then
        for j = 0 to c - 1 do
          let d = ref (Array.unsafe_get dst j) in
          d := !d +. (Array.unsafe_get row j *. Array.unsafe_get v i0);
          Array.unsafe_set dst j !d
        done;
      i := i0 + 1
    end
  done;
  dst
