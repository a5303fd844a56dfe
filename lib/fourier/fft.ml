open Linalg

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let next_power_of_two n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

(* In-place iterative radix-2 Cooley-Tukey on separate re/im arrays.
   [sign] is -1 for the forward transform, +1 for the inverse. *)
let radix2_inplace re im sign =
  let n = Array.length re in
  (* bit reversal permutation *)
  let j = ref 0 in
  for i = 0 to n - 2 do
    if i < !j then begin
      let tr = re.(i) in
      re.(i) <- re.(!j);
      re.(!j) <- tr;
      let ti = im.(i) in
      im.(i) <- im.(!j);
      im.(!j) <- ti
    end;
    (* reversed-order increment of j: clear the leading set bits,
       then set the first clear one *)
    let m = ref (n lsr 1) in
    while !m land !j <> 0 do
      j := !j lxor !m;
      m := !m lsr 1
    done;
    j := !j lor !m
  done;
  (* butterflies *)
  let len = ref 2 in
  while !len <= n do
    let half = !len / 2 in
    let theta = float_of_int sign *. 2. *. Float.pi /. float_of_int !len in
    let wr = cos theta and wi = sin theta in
    let start = ref 0 in
    while !start < n do
      let cur_r = ref 1. and cur_i = ref 0. in
      for k = 0 to half - 1 do
        let a = !start + k and b = !start + k + half in
        let tr = (re.(b) *. !cur_r) -. (im.(b) *. !cur_i) in
        let ti = (re.(b) *. !cur_i) +. (im.(b) *. !cur_r) in
        re.(b) <- re.(a) -. tr;
        im.(b) <- im.(a) -. ti;
        re.(a) <- re.(a) +. tr;
        im.(a) <- im.(a) +. ti;
        let nr = (!cur_r *. wr) -. (!cur_i *. wi) in
        cur_i := (!cur_r *. wi) +. (!cur_i *. wr);
        cur_r := nr
      done;
      start := !start + !len
    done;
    len := !len * 2
  done

let of_parts re im = Array.init (Array.length re) (fun i -> Cx.cx re.(i) im.(i))

let to_parts (x : Cx.Cvec.t) =
  (Array.map Cx.re x, Array.map Cx.im x)

let radix2 x sign =
  let re, im = to_parts x in
  radix2_inplace re im sign;
  of_parts re im

(* Bluestein's chirp-z transform: expresses an arbitrary-size DFT as a
   convolution, evaluated with power-of-two FFTs.  The chirp weights
   and the transformed convolution kernel depend only on (n, sign), so
   they are cached: repeated transforms of one size (one t1 grid per
   run is the common case) cost two power-of-two FFTs instead of three
   plus trigonometric setup. *)
type bluestein_plan = {
  bp_m : int;
  bp_chirp_re : float array;
  bp_chirp_im : float array;
  bp_bre : float array;  (* forward FFT of the chirp kernel *)
  bp_bim : float array;
}

(* The plan cache is shared across domains (any domain may call
   [fft]), so it must not be a bare Hashtbl: a resize racing a lookup
   corrupts the table.  Lookups read an immutable map
   through an [Atomic] (no lock on the hit path); insertion is
   mutex-guarded with a second lookup under the lock, so concurrent
   first uses of one size build the plan at most twice and publish
   exactly one. *)
module Plan_key = struct
  type t = int * int

  let compare = compare
end

module Plan_map = Map.Make (Plan_key)

let bluestein_plans : bluestein_plan Plan_map.t Atomic.t = Atomic.make Plan_map.empty
let bluestein_plans_mutex = Mutex.create ()

let build_bluestein_plan n sign =
  let m = next_power_of_two ((2 * n) - 1) in
  (* chirp weights w_j = e^{sign * i pi j^2 / n } *)
  let chirp_re = Array.make n 0. and chirp_im = Array.make n 0. in
  for j = 0 to n - 1 do
    (* j^2 mod 2n avoids precision loss for large j *)
    let jsq = j * j mod (2 * n) in
    let theta = float_of_int sign *. Float.pi *. float_of_int jsq /. float_of_int n in
    chirp_re.(j) <- cos theta;
    chirp_im.(j) <- sin theta
  done;
  let bre = Array.make m 0. and bim = Array.make m 0. in
  bre.(0) <- chirp_re.(0);
  bim.(0) <- -.chirp_im.(0);
  for j = 1 to n - 1 do
    bre.(j) <- chirp_re.(j);
    bim.(j) <- -.chirp_im.(j);
    bre.(m - j) <- chirp_re.(j);
    bim.(m - j) <- -.chirp_im.(j)
  done;
  radix2_inplace bre bim (-1);
  { bp_m = m; bp_chirp_re = chirp_re; bp_chirp_im = chirp_im; bp_bre = bre; bp_bim = bim }

let bluestein_plan n sign =
  match Plan_map.find_opt (n, sign) (Atomic.get bluestein_plans) with
  | Some p -> p
  | None ->
      Mutex.lock bluestein_plans_mutex;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock bluestein_plans_mutex)
        (fun () ->
          match Plan_map.find_opt (n, sign) (Atomic.get bluestein_plans) with
          | Some p -> p
          | None ->
              let p = build_bluestein_plan n sign in
              Atomic.set bluestein_plans (Plan_map.add (n, sign) p (Atomic.get bluestein_plans));
              p)

(* Per-domain Bluestein convolution scratch, keyed by the padded size
   [m]: repeated same-size transforms reuse it instead of allocating
   two length-[m] arrays per call. *)
let bluestein_scratch_key : (int, float array * float array) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let bluestein_scratch m =
  let tbl = Domain.DLS.get bluestein_scratch_key in
  let are, aim =
    match Hashtbl.find_opt tbl m with
    | Some ws -> ws
    | None ->
        let ws = (Array.make m 0., Array.make m 0.) in
        Hashtbl.replace tbl m ws;
        ws
  in
  Array.fill are 0 m 0.;
  Array.fill aim 0 m 0.;
  (are, aim)

(* In-place Bluestein on a re/im pair. *)
let bluestein_pair_inplace re im sign =
  let n = Array.length re in
  let { bp_m = m; bp_chirp_re = chirp_re; bp_chirp_im = chirp_im; bp_bre = bre; bp_bim = bim } =
    bluestein_plan n sign
  in
  let are, aim = bluestein_scratch m in
  for j = 0 to n - 1 do
    let xr = re.(j) and xi = im.(j) in
    are.(j) <- (xr *. chirp_re.(j)) -. (xi *. chirp_im.(j));
    aim.(j) <- (xr *. chirp_im.(j)) +. (xi *. chirp_re.(j))
  done;
  radix2_inplace are aim (-1);
  (* pointwise product *)
  for j = 0 to m - 1 do
    let pr = (are.(j) *. bre.(j)) -. (aim.(j) *. bim.(j)) in
    let pi = (are.(j) *. bim.(j)) +. (aim.(j) *. bre.(j)) in
    are.(j) <- pr;
    aim.(j) <- pi
  done;
  radix2_inplace are aim 1;
  let scale = 1. /. float_of_int m in
  for k = 0 to n - 1 do
    let cr = are.(k) *. scale and ci = aim.(k) *. scale in
    re.(k) <- (cr *. chirp_re.(k)) -. (ci *. chirp_im.(k));
    im.(k) <- (cr *. chirp_im.(k)) +. (ci *. chirp_re.(k))
  done

let bluestein x sign =
  let re, im = to_parts x in
  bluestein_pair_inplace re im sign;
  of_parts re im

let fft x =
  let n = Array.length x in
  if n <= 1 then Array.copy x
  else if is_power_of_two n then radix2 x (-1)
  else bluestein x (-1)

let fft_real x = fft (Cx.Cvec.of_real x)

let dft x =
  let n = Array.length x in
  Array.init n (fun k ->
      let s = ref Complex.zero in
      for j = 0 to n - 1 do
        let w = Cx.cis (-2. *. Float.pi *. float_of_int (j * k mod n) /. float_of_int n) in
        s := Complex.add !s (Complex.mul x.(j) w)
      done;
      !s)
