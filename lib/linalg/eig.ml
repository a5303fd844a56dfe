(* Faddeev-LeVerrier: M_1 = A, c_{n-1} = -tr M_1;
   M_{k+1} = A (M_k + c_{n-k} I), c_{n-k-1} = -tr(M_{k+1}) / (k+1).
   Characteristic polynomial: lambda^n + c_{n-1} lambda^{n-1} + ... + c_0. *)
let char_poly a =
  let n = Mat.rows a in
  if Mat.cols a <> n then invalid_arg "Eig.char_poly: matrix not square";
  let trace m =
    let s = ref 0. in
    for i = 0 to n - 1 do
      s := !s +. m.(i).(i)
    done;
    !s
  in
  let coeffs = Array.make (n + 1) 0. in
  coeffs.(n) <- 1.;
  let m = ref (Mat.copy a) in
  for k = 1 to n do
    let c = -.trace !m /. float_of_int k in
    coeffs.(n - k) <- c;
    if k < n then begin
      (* M <- A (M + c I) *)
      let shifted = Mat.copy !m in
      for i = 0 to n - 1 do
        shifted.(i).(i) <- shifted.(i).(i) +. c
      done;
      m := Mat.mul a shifted
    end
  done;
  coeffs

let eigenvalues a = Poly.roots (char_poly a)

