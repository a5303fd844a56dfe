open Linalg

type t = {
  dim : int;
  q : Vec.t -> Vec.t;
  f : t:float -> Vec.t -> Vec.t;
  dq : Vec.t -> Mat.t;
  df : t:float -> Vec.t -> Mat.t;
  var_names : string array;
}

let default_names dim = Array.init dim (Printf.sprintf "x%d")

let make ~dim ~q ~f ?dq ?df ?var_names () =
  let var_names = match var_names with Some v -> v | None -> default_names dim in
  if Array.length var_names <> dim then invalid_arg "Dae.make: var_names length mismatch";
  let dq = match dq with Some d -> d | None -> fun x -> Nonlin.Fdjac.jacobian q x in
  let df = match df with Some d -> d | None -> fun ~t x -> Nonlin.Fdjac.jacobian (fun y -> f ~t y) x in
  { dim; q; f; dq; df; var_names }

let of_ode ~dim ~rhs ?drhs ?var_names () =
  let q x = Array.copy x in
  let f ~t x = Vec.scale (-1.) (rhs ~t x) in
  let dq x = Mat.identity (Array.length x) in
  let df =
    match drhs with
    | Some d -> Some (fun ~t x -> Mat.scale (-1.) (d ~t x))
    | None -> None
  in
  make ~dim ~q ~f ~dq ?df ?var_names ()

let consistent_derivative dae ~t x =
  let c = dae.dq x in
  let rhs = Vec.scale (-1.) (dae.f ~t x) in
  match Lu.factor c with
  | exception Lu.Singular _ ->
    failwith "Dae.consistent_derivative: singular dq/dx (algebraic constraint present)"
  | lu -> Lu.solve lu rhs

let dc_operating_point ?x0 dae =
  let x0 = match x0 with Some x -> x | None -> Array.make dae.dim 0. in
  Nonlin.Newton.solve
    ~jacobian:(fun x -> dae.df ~t:0. x)
    ~residual:(fun x -> dae.f ~t:0. x)
    x0
