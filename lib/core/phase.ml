type t =
  | Derivative of int
  | Fourier of { component : int; harmonic : int }

let row condition ~n1 ~n ~d =
  let check_component comp =
    if comp < 0 || comp >= n then invalid_arg "Phase.row: component out of range"
  in
  let coeffs = Array.make (n1 * n) 0. in
  (match condition with
   | Derivative comp ->
     check_component comp;
     for k = 0 to n1 - 1 do
       coeffs.((k * n) + comp) <- d.(0).(k)
     done
   | Fourier { component; harmonic } ->
     check_component component;
     if harmonic <= 0 || harmonic > n1 / 2 then
       invalid_arg "Phase.row: harmonic out of range";
     (* Im Xhat_l = sum_j x_j * (- sin (2 pi l j / n1)) / n1; the row is
        kept at O(1) scale (the 1/n1 normalization dropped) so its
        residual is weighted comparably to the collocation rows in the
        Newton norm *)
     for j = 0 to n1 - 1 do
       let theta = 2. *. Float.pi *. float_of_int (harmonic * j) /. float_of_int n1 in
       coeffs.((j * n) + component) <- -.sin theta
     done);
  coeffs
