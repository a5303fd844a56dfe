open Linalg

let upward ~times x =
  let n = Array.length x in
  if Array.length times <> n then invalid_arg "Zero_crossing.upward: length mismatch";
  let out = ref [] in
  for i = 1 to n - 1 do
    if x.(i - 1) < 0. && x.(i) >= 0. then begin
      let frac = -.x.(i - 1) /. (x.(i) -. x.(i - 1)) in
      out := (times.(i - 1) +. (frac *. (times.(i) -. times.(i - 1)))) :: !out
    end
  done;
  Array.of_list (List.rev !out)

let instantaneous_frequency ~times x =
  let crossings = upward ~times x in
  let n = Array.length crossings in
  let mids = Array.init (Int.max 0 (n - 1)) (fun i -> (crossings.(i) +. crossings.(i + 1)) /. 2.) in
  let freqs =
    Array.init (Int.max 0 (n - 1)) (fun i -> 1. /. (crossings.(i + 1) -. crossings.(i)))
  in
  (mids, freqs)

let phase_error ~reference ~test =
  let rt, rx = reference and tt, tx = test in
  let rc = upward ~times:rt rx and tc = upward ~times:tt tx in
  if Array.length rc < 2 || Array.length tc < 1 then ([||], [||])
  else begin
    (* align cycle indices: pick the test crossing nearest the first
       reference crossing, so a sub-period initial offset is measured
       rather than a spurious whole-cycle shift *)
    let offset = ref 0 in
    for o = 1 to Array.length tc - 1 do
      if Float.abs (tc.(o) -. rc.(0)) < Float.abs (tc.(!offset) -. rc.(0)) then offset := o
    done;
    let n = Int.min (Array.length rc) (Array.length tc - !offset) in
    if n < 2 then ([||], [||])
    else begin
      let out_t = Array.make (n - 1) 0. and out_e = Array.make (n - 1) 0. in
      for k = 0 to n - 2 do
        let period = rc.(k + 1) -. rc.(k) in
        out_t.(k) <- rc.(k);
        out_e.(k) <- (tc.(k + !offset) -. rc.(k)) /. period
      done;
      (out_t, out_e)
    end
  end

let max_abs_phase_error ~reference ~test =
  let _, errs = phase_error ~reference ~test in
  Vec.norm_inf errs
