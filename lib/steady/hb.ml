open Linalg
module Obs = Wampde_obs

type solution = { period : float; harmonics : int; coeffs : Cx.Cvec.t array }

let c_iters = Obs.Metrics.counter "hb.iterations"
let c_solves = Obs.Metrics.counter "hb.solves"

let two_pi = 2. *. Float.pi

(* Layout: z.((v * nn) + (i + m)) = coefficient X_i of variable v, with
   nn = 2 m + 1 grid/spectrum size. *)

let synthesize_states ~n ~m coeffs_of =
  let nn = (2 * m) + 1 in
  Array.init nn (fun j ->
      Vec.init n (fun v ->
          let s = ref 0. in
          for i = -m to m do
            let c = coeffs_of v i in
            let theta = two_pi *. float_of_int (i * j) /. float_of_int nn in
            s := !s +. ((Cx.re c *. cos theta) -. (Cx.im c *. sin theta))
          done;
          !s))

(* centered Fourier coefficients of samples g.(j), j = 0..nn-1 *)
let analyze ~m samples =
  let nn = (2 * m) + 1 in
  Array.init nn (fun idx ->
      let i = idx - m in
      let s = ref Complex.zero in
      for j = 0 to nn - 1 do
        let theta = -.two_pi *. float_of_int (i * j) /. float_of_int nn in
        s := Complex.add !s (Complex.mul (Cx.cx samples.(j) 0.) (Cx.cis theta))
      done;
      Cx.scale (1. /. float_of_int nn) !s)

(* matrix-valued centered coefficients of a periodic matrix sequence *)
let analyze_matrix ~m mats =
  let nn = (2 * m) + 1 in
  let n = Mat.rows mats.(0) in
  Array.init nn (fun idx ->
      let k = idx - m in
      Cx.Cmat.init n n (fun r c ->
          let s = ref Complex.zero in
          for j = 0 to nn - 1 do
            let theta = -.two_pi *. float_of_int (k * j) /. float_of_int nn in
            s := Complex.add !s (Complex.mul (Cx.cx mats.(j).(r).(c) 0.) (Cx.cis theta))
          done;
          Cx.scale (1. /. float_of_int nn) !s))

let project_symmetry ~n ~m z =
  let nn = (2 * m) + 1 in
  for v = 0 to n - 1 do
    let base = v * nn in
    z.(base + m) <- Cx.cx (Cx.re z.(base + m)) 0.;
    for i = 1 to m do
      let plus = z.(base + m + i) and minus = z.(base + m - i) in
      let re = 0.5 *. (Cx.re plus +. Cx.re minus) in
      let im = 0.5 *. (Cx.im plus -. Cx.im minus) in
      z.(base + m + i) <- Cx.cx re im;
      z.(base + m - i) <- Cx.cx re (-.im)
    done
  done

let residual_of dae ~period ~m z =
  let n = dae.Dae.dim in
  let nn = (2 * m) + 1 in
  let coeff v i = z.((v * nn) + (i + m)) in
  let states = synthesize_states ~n ~m coeff in
  let qs = Array.map (fun _ -> Array.make n 0.) states in
  let fs = Array.map (fun _ -> Array.make n 0.) states in
  Array.iteri
    (fun j st ->
      dae.Dae.eval_into ~t:(period *. float_of_int j /. float_of_int nn) st ~q:qs.(j) ~f:fs.(j)
        ~c:[||] ~g:[||])
    states;
  let res = Cx.Cvec.zeros (n * nn) in
  for v = 0 to n - 1 do
    let q_coeffs = analyze ~m (Array.map (fun q -> q.(v)) qs) in
    let f_coeffs = analyze ~m (Array.map (fun f -> f.(v)) fs) in
    for i = -m to m do
      let jwi = Cx.cx 0. (two_pi *. float_of_int i /. period) in
      res.((v * nn) + (i + m)) <-
        Complex.add (Complex.mul jwi q_coeffs.(i + m)) f_coeffs.(i + m)
    done
  done;
  res

let jacobian_of dae ~period ~m z =
  let n = dae.Dae.dim in
  let nn = (2 * m) + 1 in
  let coeff v i = z.((v * nn) + (i + m)) in
  let states = synthesize_states ~n ~m coeff in
  let cs = Array.map (fun _ -> Mat.zeros n n) states in
  let gs = Array.map (fun _ -> Mat.zeros n n) states in
  Array.iteri
    (fun j st ->
      dae.Dae.eval_into ~t:(period *. float_of_int j /. float_of_int nn) st ~q:[||] ~f:[||]
        ~c:cs.(j) ~g:gs.(j))
    states;
  let chat = analyze_matrix ~m cs in
  let ghat = analyze_matrix ~m gs in
  let dim = n * nn in
  let jac = Cx.Cmat.zeros dim dim in
  (* block (i, l): jw_i Chat_{i-l} + Ghat_{i-l}, index mod nn *)
  for i = -m to m do
    let jwi = Cx.cx 0. (two_pi *. float_of_int i /. period) in
    for l = -m to m do
      let k = ((i - l) mod nn + nn) mod nn in
      (* map k in 0..nn-1 back to centered index *)
      let k_centered = if k <= m then k else k - nn in
      let c_blk = chat.(k_centered + m) and g_blk = ghat.(k_centered + m) in
      for r = 0 to n - 1 do
        for c = 0 to n - 1 do
          let value = Complex.add (Complex.mul jwi c_blk.(r).(c)) g_blk.(r).(c) in
          if value <> Complex.zero then
            jac.((r * nn) + (i + m)).((c * nn) + (l + m)) <- value
        done
      done
    done
  done;
  jac

let solve dae ~period ~harmonics:m ~guess =
  Obs.Span.span
    ~attrs:[ ("harmonics", Obs.Span.Int m); ("dim", Obs.Span.Int dae.Dae.dim) ]
    "hb.solve"
  @@ fun () ->
  Obs.Scope.with_scope "hb" @@ fun () ->
  Obs.Metrics.incr c_solves;
  let n = dae.Dae.dim in
  let nn = (2 * m) + 1 in
  if Array.length guess <> nn then invalid_arg "Hb.solve: guess must have 2 harmonics + 1 states";
  (* initial coefficients from the time-domain guess *)
  let z = Cx.Cvec.zeros (n * nn) in
  for v = 0 to n - 1 do
    let samples = Array.map (fun s -> s.(v)) guess in
    let c = analyze ~m samples in
    Array.blit c 0 z (v * nn) nn
  done;
  let tol = 1e-9 in
  let rnorm z = Cx.Cvec.norm_inf (residual_of dae ~period ~m z) in
  let current = ref z in
  let best = ref (rnorm z) in
  let iters = ref 0 in
  while !best > tol && !iters < 60 do
    incr iters;
    let r = residual_of dae ~period ~m !current in
    let dz =
      match Cx.Clu.factor (jacobian_of dae ~period ~m !current) with
      | exception Cx.Clu.Singular _ -> failwith "Hb.solve: singular harmonic-balance Jacobian"
      | lu -> Cx.Clu.solve lu r
    in
    (* damped update with symmetry projection *)
    let rec try_lambda lambda =
      if lambda < 1e-4 then failwith "Hb.solve: line search failed"
      else begin
        let trial =
          Array.mapi (fun k zk -> Complex.sub zk (Cx.scale lambda dz.(k))) !current
        in
        project_symmetry ~n ~m trial;
        let nt = rnorm trial in
        if Float.is_finite nt && (nt < !best || nt <= tol) then (trial, nt, lambda)
        else try_lambda (lambda /. 2.)
      end
    in
    let trial, nt, lambda = try_lambda 1. in
    current := trial;
    best := nt;
    Obs.Metrics.incr c_iters;
    if Obs.Events.active () then
      Obs.Events.emit
        (Obs.Events.Newton_iter { solver = "hb"; k = !iters; residual = nt; damping = lambda })
  done;
  if !best > tol then
    failwith (Printf.sprintf "Hb.solve: no convergence (residual %.3e)" !best);
  let coeffs =
    Array.init n (fun v -> Array.sub !current (v * nn) nn)
  in
  { period; harmonics = m; coeffs }

let solve_from_transient dae ~period ~harmonics ~warmup_periods x0 =
  let nn = (2 * harmonics) + 1 in
  let t_warm = period *. float_of_int warmup_periods in
  let h = period /. 200. in
  let traj =
    Transient.integrate dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:(t_warm +. period) ~h x0
  in
  let guess =
    Array.init nn (fun j ->
        let t = t_warm +. (period *. float_of_int j /. float_of_int nn) in
        Vec.init dae.Dae.dim (fun i -> Transient.interpolate traj i t))
  in
  solve dae ~period ~harmonics ~guess

let eval sol ~component t =
  Fourier.Series.eval sol.coeffs.(component) ~period:sol.period t

let grid sol =
  let n = Array.length sol.coeffs in
  let m = sol.harmonics in
  synthesize_states ~n ~m (fun v i -> sol.coeffs.(v).(i + m))

let residual_norm dae sol =
  let n = Array.length sol.coeffs in
  let nn = (2 * sol.harmonics) + 1 in
  let z = Cx.Cvec.zeros (n * nn) in
  Array.iteri (fun v c -> Array.blit c 0 z (v * nn) nn) sol.coeffs;
  Cx.Cvec.norm_inf (residual_of dae ~period:sol.period ~m:sol.harmonics z)

let spectrum sol ~component =
  let m = sol.harmonics in
  Vec.init (m + 1) (fun i -> Complex.norm sol.coeffs.(component).(i + m))
