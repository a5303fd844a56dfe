open Linalg

let ground = 0

(* One record per evaluation: the device bodies read [x] and [time] and
   add into the requested accumulators ([[||]] when not requested);
   [offset] is the first state slot of the device being stamped. *)
type ctx = {
  x : Vec.t;
  time : float;
  mutable offset : int;
  q_acc : Vec.t;
  f_acc : Vec.t;
  dq_acc : Mat.t;
  df_acc : Mat.t;
}

let[@inline] time c = c.time

(* whether the pass wants a Jacobian: without one a device skips its
   derivative arithmetic *)
let[@inline] jac c = Array.length c.dq_acc > 0 || Array.length c.df_acc > 0

let[@inline] v c id = if id = ground then 0. else c.x.(id - 1)
let[@inline] s c k = c.x.(c.offset + k)
let[@inline] add_vec a row value = if Array.length a > 0 then a.(row) <- a.(row) +. value

let[@inline] add_mat m row col value =
  if Array.length m > 0 then m.(row).(col) <- m.(row).(col) +. value

(* Jacobian entry by (row, column) kind: node ids drop ground, local
   state indices are shifted by the device's first slot *)
let[@inline] node_node m r col value =
  if r <> ground && col <> ground then add_mat m (r - 1) (col - 1) value

let[@inline] node_state c m r k value = if r <> ground then add_mat m (r - 1) (c.offset + k) value
let[@inline] state_node c m k col value =
  if col <> ground then add_mat m (c.offset + k) (col - 1) value
(* Device stamps talk to the ctx only through the helpers below: [v]
   and [s] read node voltages and the device's local extra states,
   [qn]/[fn]/[qs]/[fs] add charge/current at a node or local-state row,
   and [dXr_dY c row col d] adds [d] to d(X row)/d(col), where [X] is
   [q] or [f] and [r]/[Y] say whether row/column is a node id ([n]/[v])
   or a local state index ([s]).  Ground rows and columns are dropped. *)
let[@inline] qn c id value = if id <> ground then add_vec c.q_acc (id - 1) value
let[@inline] fn c id value = if id <> ground then add_vec c.f_acc (id - 1) value
let[@inline] qs c k value = add_vec c.q_acc (c.offset + k) value
let[@inline] fs c k value = add_vec c.f_acc (c.offset + k) value
let[@inline] dqn_dv c r col value = node_node c.dq_acc r col value
let[@inline] dqn_ds c r k value = node_state c c.dq_acc r k value
let[@inline] dfn_dv c r col value = node_node c.df_acc r col value
let[@inline] dfn_ds c r k value = node_state c c.df_acc r k value
let[@inline] dqs_ds c k j value = add_mat c.dq_acc (c.offset + k) (c.offset + j) value
let[@inline] dfs_dv c k col value = state_node c c.df_acc k col value
let[@inline] dfs_ds c k j value = add_mat c.df_acc (c.offset + k) (c.offset + j) value

type device = {
  label : string;
  state_names : string array;
  initial_state : float array;
  stamp : ctx -> unit;
}

type t = {
  names : (string, int) Hashtbl.t;
  mutable next_node : int;
  mutable devices : device list;  (* reversed *)
}

let create () = { names = Hashtbl.create 16; next_node = 1; devices = [] }

let node t name =
  match String.lowercase_ascii name with
  | "0" | "gnd" | "ground" -> ground
  | _ ->
    (match Hashtbl.find_opt t.names name with
     | Some id -> id
     | None ->
       let id = t.next_node in
       t.next_node <- id + 1;
       Hashtbl.add t.names name id;
       id)

let add t device = t.devices <- device :: t.devices
let node_count t = t.next_node - 1

(* Layout: x = [v_1 .. v_N; states of device 1; states of device 2; ...] *)
let layout t =
  let pos = ref (node_count t) in
  let placed =
    Array.map
      (fun d ->
        let offset = !pos in
        pos := offset + Array.length d.state_names;
        (d, offset))
      (Array.of_list (List.rev t.devices))
  in
  (placed, !pos)

(* plain loops: a circuit's few rows are too short for a C call to pay *)
let zero v =
  for i = 0 to Array.length v - 1 do
    v.(i) <- 0.
  done

let zero_rows m =
  for i = 0 to Array.length m - 1 do
    zero m.(i)
  done

let compile t =
  let placed, dim = layout t in
  (* one pass: zero the requested accumulators, then stamp every device
     once; the record is per call, so concurrent evaluations share
     nothing *)
  let eval_into ~t:time x ~q:q_acc ~f:f_acc ~c:dq_acc ~g:df_acc =
    zero q_acc;
    zero f_acc;
    zero_rows dq_acc;
    zero_rows df_acc;
    let c = { x; time; offset = 0; q_acc; f_acc; dq_acc; df_acc } in
    for k = 0 to Array.length placed - 1 do
      let d, offset = placed.(k) in
      c.offset <- offset;
      d.stamp c
    done
  in
  (* the four closures are allocating views over the same pass *)
  let q x =
    let q = Array.make dim 0. in
    eval_into ~t:0. x ~q ~f:[||] ~c:[||] ~g:[||];
    q
  in
  let f ~t x =
    let f = Array.make dim 0. in
    eval_into ~t x ~q:[||] ~f ~c:[||] ~g:[||];
    f
  in
  let dq x =
    let c = Mat.zeros dim dim in
    eval_into ~t:0. x ~q:[||] ~f:[||] ~c ~g:[||];
    c
  in
  let df ~t x =
    let g = Mat.zeros dim dim in
    eval_into ~t x ~q:[||] ~f:[||] ~c:[||] ~g;
    g
  in
  let var_names = Array.make dim "" in
  Hashtbl.iter (fun name id -> var_names.(id - 1) <- Printf.sprintf "v(%s)" name) t.names;
  Array.iter
    (fun (d, offset) ->
      Array.iteri
        (fun k sn -> var_names.(offset + k) <- Printf.sprintf "%s.%s" d.label sn)
        d.state_names)
    placed;
  Dae.make ~dim ~q ~f ~dq ~df ~eval_into ~var_names ()

let initial_guess t =
  let placed, dim = layout t in
  let x = Array.make dim 0. in
  Array.iter
    (fun (d, offset) -> Array.iteri (fun k v0 -> x.(offset + k) <- v0) d.initial_state)
    placed;
  x

(* ---------- devices ---------- *)

let two_terminal label stamp = { label; state_names = [||]; initial_state = [||]; stamp }

(* Each device stamps its values, then, under [if jac c], its
   derivatives: a value-only pass computes no derivative at all. *)

(* current [i] pushed n1 -> n2 *)
let[@inline] current c n1 n2 i =
  fn c n1 i;
  fn c n2 (-.i)

(* that current's slope [di] with respect to v cp - v cn *)
let[@inline] current_slope c n1 n2 cp cn di =
  dfn_dv c n1 cp di;
  dfn_dv c n1 cn (-.di);
  dfn_dv c n2 cp (-.di);
  dfn_dv c n2 cn di

(* charge [q] on n1 (and -q on n2) *)
let[@inline] charge c n1 n2 q =
  qn c n1 q;
  qn c n2 (-.q)

(* that charge's slope [dq] with respect to v n1 - v n2 *)
let[@inline] charge_slope c n1 n2 dq =
  dqn_dv c n1 n1 dq;
  dqn_dv c n1 n2 (-.dq);
  dqn_dv c n2 n1 (-.dq);
  dqn_dv c n2 n2 dq

(* the device's branch-current state 0 leaves n1 and enters n2 *)
let[@inline] state_current c n1 n2 = current c n1 n2 (s c 0)

let[@inline] state_current_slope c n1 n2 =
  dfn_ds c n1 0 1.;
  dfn_ds c n2 0 (-1.)

let resistor ~label ~r n1 n2 =
  if r = 0. then invalid_arg "Mna.resistor: r = 0";
  let g = 1. /. r in
  two_terminal label (fun c ->
      let vb = v c n1 -. v c n2 in
      current c n1 n2 (g *. vb);
      if jac c then current_slope c n1 n2 n1 n2 g)

let capacitor ~label ~c:cap n1 n2 =
  two_terminal label (fun c ->
      let vb = v c n1 -. v c n2 in
      charge c n1 n2 (cap *. vb);
      if jac c then charge_slope c n1 n2 cap)

let inductor ~label ~l n1 n2 =
  {
    label;
    state_names = [| "i" |];
    initial_state = [| 0. |];
    stamp =
      (fun c ->
        state_current c n1 n2;
        (* branch: L di/dt - (v1 - v2) = 0 *)
        qs c 0 (l *. s c 0);
        fs c 0 (v c n2 -. v c n1);
        if jac c then begin
          state_current_slope c n1 n2;
          dqs_ds c 0 0 l;
          dfs_dv c 0 n2 1.;
          dfs_dv c 0 n1 (-1.)
        end);
  }

let vsource ~label ~v:source n1 n2 =
  {
    label;
    state_names = [| "i" |];
    initial_state = [| 0. |];
    stamp =
      (fun c ->
        state_current c n1 n2;
        (* branch equation: v1 - v2 - v(t) = 0 *)
        fs c 0 (v c n1 -. v c n2 -. source (time c));
        if jac c then begin
          state_current_slope c n1 n2;
          dfs_dv c 0 n1 1.;
          dfs_dv c 0 n2 (-1.)
        end);
  }

let isource ~label ~i n1 n2 =
  two_terminal label (fun c -> current c n1 n2 (i (time c)))

let cubic_conductance ~label ~g1 ~g3 n1 n2 =
  two_terminal label (fun c ->
      let vb = v c n1 -. v c n2 in
      current c n1 n2 ((-.g1 *. vb) +. (g3 *. vb *. vb *. vb));
      if jac c then current_slope c n1 n2 n1 n2 (-.g1 +. (3. *. g3 *. vb *. vb)))

let diode ~label ?(is_ = 1e-12) ?(vt = 0.02585) n1 n2 =
  if not (vt > 0.) then invalid_arg (Printf.sprintf "Mna.diode: vt = %g, must be > 0" vt);
  (* exponential limited linearly above vmax to keep Newton in range *)
  let vmax = 40. *. vt in
  let emax = exp (vmax /. vt) in
  let slope = is_ *. emax /. vt in
  two_terminal label (fun c ->
      let vb = v c n1 -. v c n2 in
      if vb <= vmax then begin
        let e = exp (vb /. vt) in
        current c n1 n2 (is_ *. (e -. 1.));
        if jac c then current_slope c n1 n2 n1 n2 (is_ *. e /. vt)
      end
      else begin
        current c n1 n2 ((is_ *. (emax -. 1.)) +. (slope *. (vb -. vmax)));
        if jac c then current_slope c n1 n2 n1 n2 slope
      end)

let nonlinear_capacitor ~label ~q ~dq n1 n2 =
  two_terminal label (fun c ->
      let vb = v c n1 -. v c n2 in
      charge c n1 n2 (q vb);
      if jac c then charge_slope c n1 n2 (dq vb))

type varactor_params = {
  c0 : float;
  gap0 : float;
  g_rest : float;
  mass : float;
  damping : float;
  stiffness : float;
  force0 : float;
  force_power : int;
  control : float -> float;
}

let mems_varactor ~label ~params n1 n2 =
  let p = params in
  if p.force_power <> 0 && p.force_power <> 2 then
    invalid_arg "Mna.mems_varactor: force_power must be 0 or 2";
  {
    label;
    state_names = [| "gap"; "vel" |];
    initial_state = [| p.gap0; 0. |];
    stamp =
      (fun c ->
        let vb = v c n1 -. v c n2 in
        let g = s c 0 and u = s c 1 in
        (* electrical: plate charge q = c0 g0 v / g *)
        let cap = p.c0 *. p.gap0 /. g in
        let q = cap *. vb in
        charge c n1 n2 q;
        (* mechanical state 0: dg/dt - u = 0 *)
        qs c 0 g;
        fs c 0 (-.u);
        (* mechanical state 1:
           m du/dt + damping u + k (g - g_rest) + force = 0
           where force = force0 vc^2 / g^power pulls the gap closed. *)
        let vc = p.control (time c) in
        let force =
          match p.force_power with
          | 0 -> p.force0 *. vc *. vc
          | _ -> p.force0 *. vc *. vc /. (g *. g)
        in
        qs c 1 (p.mass *. u);
        fs c 1 ((p.damping *. u) +. (p.stiffness *. (g -. p.g_rest)) +. force);
        if jac c then begin
          charge_slope c n1 n2 cap;
          let dq_dg = -.q /. g in
          dqn_ds c n1 0 dq_dg;
          dqn_ds c n2 0 (-.dq_dg);
          dqs_ds c 0 0 1.;
          dfs_ds c 0 1 (-1.);
          let dforce_dg = match p.force_power with 0 -> 0. | _ -> -2. *. force /. g in
          dqs_ds c 1 1 p.mass;
          dfs_ds c 1 1 p.damping;
          dfs_ds c 1 0 (p.stiffness +. dforce_dg)
        end);
  }

let vccs ~label ~gm ncp ncn n1 n2 =
  two_terminal label (fun c ->
      current c n1 n2 (gm *. (v c ncp -. v c ncn));
      if jac c then current_slope c n1 n2 ncp ncn gm)

let vcvs ~label ~gain ncp ncn n1 n2 =
  {
    label;
    state_names = [| "i" |];
    initial_state = [| 0. |];
    stamp =
      (fun c ->
        state_current c n1 n2;
        (* v1 - v2 - gain (vcp - vcn) = 0 *)
        fs c 0 (v c n1 -. v c n2 -. (gain *. (v c ncp -. v c ncn)));
        if jac c then begin
          state_current_slope c n1 n2;
          dfs_dv c 0 n1 1.;
          dfs_dv c 0 n2 (-1.);
          dfs_dv c 0 ncp (-.gain);
          dfs_dv c 0 ncn gain
        end);
  }

(* Square-law n-channel MOSFET (level-1, no channel-length modulation).
   Drain current for vds >= 0; for vds < 0 drain and source swap roles
   (symmetric device). *)
let mosfet ~label ?(k = 1.) ?(vt = 0.6) ~drain ~gate ~source () =
  two_terminal label (fun c ->
      let vd = v c drain and vg = v c gate and vs = v c source in
      let flip = vd < vs in
      let d = if flip then source else drain and s = if flip then drain else source in
      let vds = Float.abs (vd -. vs) in
      let vgs = vg -. v c s in
      let vov = vgs -. vt in
      (* cutoff, saturation or triode *)
      let on = not (vgs <= vt) in
      let saturated = vds >= vov in
      let i =
        if not on then 0.
        else if saturated then 0.5 *. k *. vov *. vov
        else k *. ((vov *. vds) -. (0.5 *. vds *. vds))
      in
      let i_signed = if flip then -.i else i in
      fn c drain i_signed;
      fn c source (-.i_signed);
      if jac c then begin
        (* d i / d node voltages in the (d, g, s) frame, then mapped back *)
        let dg = if not on then 0. else if saturated then k *. vov else k *. vds in
        let dd = if on && not saturated then k *. (vov -. vds) else 0. in
        let ds = -.dg -. dd in
        let sign = if flip then -1. else 1. in
        dfn_dv c drain gate (sign *. dg);
        dfn_dv c drain d (sign *. dd);
        dfn_dv c drain s (sign *. ds);
        dfn_dv c source gate (-.sign *. dg);
        dfn_dv c source d (-.sign *. dd);
        dfn_dv c source s (-.sign *. ds)
      end)

(* Reverse-biased junction (varactor) diode capacitance:
   C(v) = c0 / (1 - v/vj)^m for v <= fc vj, with the standard SPICE
   linearized extension above fc vj to avoid the singularity at v = vj.
   Charge is the closed-form integral of C. *)
let junction_capacitor ~label ?(c0 = 1.) ?(vj = 0.7) ?(m = 0.5) ?(fc = 0.5) n1 n2 =
  let reject fmt = Printf.ksprintf (fun m -> invalid_arg ("Mna.junction_capacitor: " ^ m)) fmt in
  if not (m < 1.) then reject "m = %g, must be < 1" m;
  if not (vj > 0.) then reject "vj = %g, must be > 0" vj;
  if not (fc >= 0. && fc < 1.) then reject "fc = %g, must be in [0, 1)" fc;
  let q_of v =
    if v <= fc *. vj then
      c0 *. vj /. (1. -. m) *. (1. -. ((1. -. (v /. vj)) ** (1. -. m)))
    else begin
      (* continue with C and dC/dv matched at v = fc vj *)
      let f1 = (1. -. fc) ** (1. -. m) in
      let q_fc = c0 *. vj /. (1. -. m) *. (1. -. f1) in
      let c_fc = c0 /. ((1. -. fc) ** m) in
      let dc_fc = c0 *. m /. vj /. ((1. -. fc) ** (m +. 1.)) in
      let dv = v -. (fc *. vj) in
      q_fc +. (c_fc *. dv) +. (0.5 *. dc_fc *. dv *. dv)
    end
  in
  let c_of v =
    if v <= fc *. vj then c0 /. ((1. -. (v /. vj)) ** m)
    else begin
      let c_fc = c0 /. ((1. -. fc) ** m) in
      let dc_fc = c0 *. m /. vj /. ((1. -. fc) ** (m +. 1.)) in
      c_fc +. (dc_fc *. (v -. (fc *. vj)))
    end
  in
  nonlinear_capacitor ~label ~q:q_of ~dq:c_of n1 n2

let multiplier ~label ~k (a1, a2) (b1, b2) n1 n2 =
  two_terminal label (fun c ->
      let va = v c a1 -. v c a2 and vb = v c b1 -. v c b2 in
      current c n1 n2 (k *. va *. vb);
      if jac c then begin
        let dia = k *. vb and dib = k *. va in
        dfn_dv c n1 a1 dia;
        dfn_dv c n1 a2 (-.dia);
        dfn_dv c n1 b1 dib;
        dfn_dv c n1 b2 (-.dib);
        dfn_dv c n2 a1 (-.dia);
        dfn_dv c n2 a2 dia;
        dfn_dv c n2 b1 (-.dib);
        dfn_dv c n2 b2 dib
      end)
