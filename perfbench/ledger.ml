(* Per-layer cost ledger of a traced run.

   The benchmark adds no tracing inside the libraries: it reads the
   spans and counters they already emit.  A span writer sees every
   span_start/span_stop line as it happens on the calling domain and
   keeps a shadow stack, so each span's self time (its duration minus
   the time its child spans cover) and self allocation land in the
   layer its name belongs to.  Circuit evaluations have no spans; the
   Dae.t wrappers below count and time them, and their time on the
   calling domain is taken out of the enclosing span's self time.  The
   rows therefore partition the traced wall time exactly:

     sum of layer self times + circuit time + unattributed = wall *)

module Obs = Wampde_obs

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Words allocated by the calling domain so far. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

(* ---------- circuit layer ---------- *)

let f_calls = Atomic.make 0
let df_calls = Atomic.make 0
let q_calls = Atomic.make 0
let dq_calls = Atomic.make 0
let main_eval_ns = Atomic.make 0
let worker_eval_ns = Atomic.make 0
let main_domain = Domain.self ()

(* The wrappers also run on pool workers (Nonlin.Fdjac evaluates
   Jacobian columns there), so every cell they touch is an Atomic. *)
let timed calls eval =
  Atomic.incr calls;
  let t0 = now_ns () in
  let r = eval () in
  let dt = now_ns () - t0 in
  ignore
    (Atomic.fetch_and_add
       (if Domain.self () = main_domain then main_eval_ns else worker_eval_ns)
       dt);
  r

(* Counting and timing wrapper; used in the traced run only. *)
let wrap (d : Dae.t) =
  {
    d with
    Dae.f = (fun ~t x -> timed f_calls (fun () -> d.Dae.f ~t x));
    df = (fun ~t x -> timed df_calls (fun () -> d.Dae.df ~t x));
    q = (fun x -> timed q_calls (fun () -> d.Dae.q x));
    dq = (fun x -> timed dq_calls (fun () -> d.Dae.dq x));
  }

(* ---------- span layers ---------- *)

let layers =
  [|
    "transient"; "oscillator"; "envelope"; "quasiperiodic"; "mpde"; "newton"; "gmres"; "checkpoint"; "serve";
  |]

let n_layers = Array.length layers
let oscillator = 1

(* Spans named outside the known layers fold into the unattributed row. *)
let other = n_layers

let layer_of_span name =
  let prefix = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
  match prefix with
  | "transient" -> 0
  | "oscillator" | "shooting" | "hb" -> 1
  | "envelope" | "hb_envelope" -> 2
  | "quasiperiodic" -> 3
  | "mpde" -> 4
  | "newton" | "polyalg" | "trust_region" | "ptc" | "broyden" | "continuation" -> 5
  | "gmres" -> 6
  | "checkpoint" -> 7
  | "serve" -> 8
  | _ -> other

type frame = {
  layer : int;
  t0 : int;
  circ0 : int;
  alloc0 : float;
  mutable child_ns : int;
  mutable child_circ : int;
  mutable child_alloc : float;
}

let stack : frame list ref = ref []
let self_ns = Array.make (n_layers + 1) 0
let self_alloc = Array.make (n_layers + 1) 0.
let osc_depth = ref 0
let osc_finds = ref 0
let osc_tsteps = ref 0
let osc_lu = ref 0
let osc_start = ref (0, 0)
let c_tsteps = Obs.Metrics.counter "transient.steps"
let c_lu = Obs.Metrics.counter "lu.factor"

let has_prefix s p =
  let n = String.length p in
  String.length s >= n
  &&
  let rec go i = i = n || (s.[i] = p.[i] && go (i + 1)) in
  go 0

let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec at i j = j = m || (s.[i + j] = sub.[j] && at i (j + 1)) in
  let rec go i = if i + m > n then None else if at i 0 then Some i else go (i + 1) in
  go 0

let span_name line =
  match find_sub line "\"name\":\"" with
  | None -> ""
  | Some i ->
    let start = i + 8 in
    let stop = try String.index_from line start '"' with Not_found -> String.length line in
    String.sub line start (stop - start)

(* Spans reported by pool workers after the barrier ("tid" field) ran
   on other domains; the calling domain's time is what the rows split. *)
let external_span line = find_sub line ",\"tid\":" <> None

let on_start line =
  let layer = layer_of_span (span_name line) in
  if layer = oscillator then begin
    if !osc_depth = 0 then begin
      incr osc_finds;
      osc_start := (Obs.Metrics.count c_tsteps, Obs.Metrics.count c_lu)
    end;
    incr osc_depth
  end;
  let alloc0 = alloc_words () in
  let circ0 = Atomic.get main_eval_ns in
  stack :=
    { layer; t0 = now_ns (); circ0; alloc0; child_ns = 0; child_circ = 0; child_alloc = 0. }
    :: !stack

let on_stop () =
  match !stack with
  | [] -> ()
  | fr :: rest ->
    let dur = now_ns () - fr.t0 in
    let circ = Atomic.get main_eval_ns - fr.circ0 in
    let alloc = alloc_words () -. fr.alloc0 in
    stack := rest;
    self_ns.(fr.layer) <- self_ns.(fr.layer) + dur - fr.child_ns - (circ - fr.child_circ);
    self_alloc.(fr.layer) <- self_alloc.(fr.layer) +. alloc -. fr.child_alloc;
    (match rest with
     | parent :: _ ->
       parent.child_ns <- parent.child_ns + dur;
       parent.child_circ <- parent.child_circ + circ;
       parent.child_alloc <- parent.child_alloc +. alloc
     | [] -> ());
    if fr.layer = oscillator then begin
      decr osc_depth;
      if !osc_depth = 0 then begin
        let ts, lu = !osc_start in
        osc_tsteps := !osc_tsteps + Obs.Metrics.count c_tsteps - ts;
        osc_lu := !osc_lu + Obs.Metrics.count c_lu - lu
      end
    end

let on_line line =
  if has_prefix line "{\"type\":\"span_start\"" then begin
    if not (external_span line) then on_start line
  end
  else if has_prefix line "{\"type\":\"span_stop\"" && not (external_span line) then on_stop ()

type t = {
  wall_s : float;
  alloc_words : float;
  self_s : float array;  (** per entry of {!layers} *)
  self_alloc_words : float array;
  circuit_s : float;  (** circuit evaluation on the calling domain *)
  circuit_worker_s : float;  (** circuit evaluation on pool workers (not in the partition) *)
  unattributed_s : float;
  unattributed_alloc_words : float;
  f_calls : int;
  df_calls : int;
  q_calls : int;
  dq_calls : int;
  oscillator_finds : int;
  oscillator_transient_steps : int;
  oscillator_lu_factors : int;
}

let reset () =
  stack := [];
  Array.fill self_ns 0 (n_layers + 1) 0;
  Array.fill self_alloc 0 (n_layers + 1) 0.;
  List.iter (fun r -> r := 0) [ osc_depth; osc_finds; osc_tsteps; osc_lu ];
  List.iter (fun a -> Atomic.set a 0) [ f_calls; df_calls; q_calls; dq_calls; main_eval_ns; worker_eval_ns ]

let seconds ns = float_of_int ns *. 1e-9

(* [traced f] runs [f] with telemetry on and the span writer installed,
   and returns its result with the ledger of that run.  The registry is
   zeroed first, so counters read afterwards describe [f] alone. *)
let traced f =
  reset ();
  Obs.Metrics.reset ();
  let was_enabled = Obs.enabled () in
  Obs.set_enabled true;
  let a0 = alloc_words () in
  let t0 = now_ns () in
  Obs.Span.set_writer (Some on_line);
  let finish () =
    Obs.Span.set_writer None;
    Obs.set_enabled was_enabled
  in
  let r = match f () with r -> finish (); r | exception e -> finish (); raise e in
  let wall_ns = now_ns () - t0 in
  let alloc = alloc_words () -. a0 in
  let known = Array.sub self_ns 0 n_layers and known_alloc = Array.sub self_alloc 0 n_layers in
  let circuit_ns = Atomic.get main_eval_ns in
  let ledger =
    {
      wall_s = seconds wall_ns;
      alloc_words = alloc;
      self_s = Array.map seconds known;
      self_alloc_words = known_alloc;
      circuit_s = seconds circuit_ns;
      circuit_worker_s = seconds (Atomic.get worker_eval_ns);
      unattributed_s = seconds (wall_ns - Array.fold_left ( + ) 0 known - circuit_ns);
      unattributed_alloc_words = alloc -. Array.fold_left ( +. ) 0. known_alloc;
      f_calls = Atomic.get f_calls;
      df_calls = Atomic.get df_calls;
      q_calls = Atomic.get q_calls;
      dq_calls = Atomic.get dq_calls;
      oscillator_finds = !osc_finds;
      oscillator_transient_steps = !osc_tsteps;
      oscillator_lu_factors = !osc_lu;
    }
  in
  (r, ledger)
