open Linalg
module Obs = Wampde_obs

type t = {
  dim : int;
  q : Vec.t -> Vec.t;
  f : t:float -> Vec.t -> Vec.t;
  dq : Vec.t -> Mat.t;
  df : t:float -> Vec.t -> Mat.t;
  eval_into : t:float -> Vec.t -> q:Vec.t -> f:Vec.t -> c:Mat.t -> g:Mat.t -> unit;
  var_names : string array;
}

let c_evals = Obs.Metrics.counter "dae.evals"
let default_names dim = Array.init dim (Printf.sprintf "x%d")

let check_names dim = function
  | None -> default_names dim
  | Some v ->
    if Array.length v <> dim then invalid_arg "Dae.make: var_names length mismatch";
    v

let[@inline] wanted a = Array.length a > 0

(* plain loops: the vectors are a circuit's few states, too short for
   a C call to pay *)
let blit_vec (src : Vec.t) (dst : Vec.t) =
  for i = 0 to Array.length src - 1 do
    dst.(i) <- src.(i)
  done

let blit_mat (src : Mat.t) (dst : Mat.t) =
  for i = 0 to Array.length src - 1 do
    blit_vec src.(i) dst.(i)
  done

let make ~dim ~q ~f ?dq ?df ?eval_into ?var_names () =
  let var_names = check_names dim var_names in
  (* a finite-difference Jacobian writes its columns straight into the
     caller's matrix; a given one is copied there *)
  let dq_into =
    match dq with
    | Some d -> fun x c -> blit_mat (d x) c
    | None -> fun x c -> Nonlin.Fdjac.jacobian_into q x c
  in
  let df_into =
    match df with
    | Some d -> fun ~t x g -> blit_mat (d ~t x) g
    | None -> fun ~t x g -> Nonlin.Fdjac.jacobian_into (fun y -> f ~t y) x g
  in
  let dq = match dq with Some d -> d | None -> fun x -> Nonlin.Fdjac.jacobian q x in
  let df = match df with Some d -> d | None -> fun ~t x -> Nonlin.Fdjac.jacobian (fun y -> f ~t y) x in
  let eval =
    match eval_into with
    | Some e -> e
    | None ->
      fun ~t x ~q:qb ~f:fb ~c ~g ->
        if wanted qb then blit_vec (q x) qb;
        if wanted fb then blit_vec (f ~t x) fb;
        if wanted c then dq_into x c;
        if wanted g then df_into ~t x g
  in
  let eval_into ~t x ~q ~f ~c ~g =
    Obs.Metrics.incr c_evals;
    eval ~t x ~q ~f ~c ~g
  in
  { dim; q; f; dq; df; eval_into; var_names }

let of_ode ~dim ~rhs ?drhs ?var_names () =
  let q x = Array.copy x in
  let f ~t x = Vec.scale (-1.) (rhs ~t x) in
  let dq x = Mat.identity (Array.length x) in
  let df =
    match drhs with
    | Some d -> fun ~t x -> Mat.scale (-1.) (d ~t x)
    | None -> fun ~t x -> Nonlin.Fdjac.jacobian (fun y -> f ~t y) x
  in
  (* without [drhs], the difference columns go straight into [g] *)
  let df_into =
    match drhs with
    | Some _ -> fun ~t x g -> blit_mat (df ~t x) g
    | None -> fun ~t x g -> Nonlin.Fdjac.jacobian_into (fun y -> f ~t y) x g
  in
  let eval_into ~t x ~q ~f ~c ~g =
    if wanted q then blit_vec x q;
    if wanted f then begin
      let r = rhs ~t x in
      for i = 0 to dim - 1 do
        f.(i) <- -1. *. r.(i)
      done
    end;
    if wanted c then
      for i = 0 to dim - 1 do
        for j = 0 to dim - 1 do
          c.(i).(j) <- (if i = j then 1. else 0.)
        done
      done;
    if wanted g then df_into ~t x g
  in
  make ~dim ~q ~f ~dq ~df ~eval_into ?var_names ()

let consistent_derivative dae ~t x =
  let n = dae.dim in
  let c = Mat.zeros n n and f = Array.make n 0. in
  dae.eval_into ~t x ~q:[||] ~f ~c ~g:[||];
  let rhs = Vec.scale (-1.) f in
  match Lu.factor_into c ~perm:(Array.make n 0) with
  | exception Lu.Singular _ ->
    failwith "Dae.consistent_derivative: singular dq/dx (algebraic constraint present)"
  | lu -> Lu.solve lu rhs

let dc_operating_point ?x0 dae =
  let n = dae.dim in
  let x0 = match x0 with Some x -> x | None -> Array.make n 0. in
  Nonlin.Newton.solve
    ~jacobian:(fun x ->
      let g = Mat.zeros n n in
      dae.eval_into ~t:0. x ~q:[||] ~f:[||] ~c:[||] ~g;
      g)
    ~residual:(fun x ->
      let f = Array.make n 0. in
      dae.eval_into ~t:0. x ~q:[||] ~f ~c:[||] ~g:[||];
      f)
    x0
