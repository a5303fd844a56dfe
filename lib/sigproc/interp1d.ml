open Linalg

type t = { times : Vec.t; values : Vec.t }

let create times values =
  let n = Array.length times in
  if Array.length values <> n then invalid_arg "Interp1d.create: length mismatch";
  if n < 2 then invalid_arg "Interp1d.create: need at least 2 points";
  for i = 1 to n - 1 do
    if times.(i) <= times.(i - 1) then invalid_arg "Interp1d.create: times not increasing"
  done;
  { times; values }

let bracket f t =
  let n = Array.length f.times in
  let lo = ref 0 and hi = ref (n - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if f.times.(mid) <= t then lo := mid else hi := mid
  done;
  !lo

let eval f t =
  let n = Array.length f.times in
  if t <= f.times.(0) then f.values.(0)
  else if t >= f.times.(n - 1) then f.values.(n - 1)
  else begin
    let i = bracket f t in
    let ta = f.times.(i) and tb = f.times.(i + 1) in
    let xa = f.values.(i) and xb = f.values.(i + 1) in
    xa +. ((xb -. xa) *. (t -. ta) /. (tb -. ta))
  end

let span f = (f.times.(0), f.times.(Array.length f.times - 1))

let cumulative_integral times values =
  let n = Array.length times in
  if Array.length values <> n then invalid_arg "Interp1d.cumulative_integral: length mismatch";
  let out = Array.make n 0. in
  for i = 1 to n - 1 do
    out.(i) <-
      out.(i - 1) +. (0.5 *. (values.(i) +. values.(i - 1)) *. (times.(i) -. times.(i - 1)))
  done;
  out
