(* The benchmark's four workloads.  Each one calls the public entry
   points of the libraries from outside, draws its inputs from the
   seed, and checks its own answers.  README.md says why each was
   chosen. *)

module Obs = Wampde_obs

let two_pi = 2. *. Float.pi
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type ctx = { seed : int; seconds : float; smoke : bool }

(* A fresh generator per call, so a traced pass draws exactly the
   inputs of the untraced passes it is compared with. *)
let rng ctx = Random.State.make [| 0x5eed; ctx.seed |]

(* Fisher-Yates *)
let shuffle g l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int g (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

type figure = { name : string; value : float; unit : string }

let fig name value unit = { name; value; unit }

type outcome = { attempted : int; failed : int; failures : string list; figures : figure list }

type measured = {
  setup_s : float list;
  solve_s : float list;
  alloc_words : float list;  (** per timed solve, all domains *)
  heap_peak_mb : float;  (** major heap high-water mark once the timed solves end *)
  outcome : outcome;
}

type t = {
  name : string;
  jobs : int;  (** pool domains of the end-to-end (untraced) run *)
  traced_jobs : int;  (** pool domains of the per-layer (traced) run *)
  measure : ctx -> measured;
      (** untraced: set-ups and timed solves for [ctx.seconds], then checks *)
  pass : ctx -> wrap:(Dae.t -> Dae.t) -> unit -> outcome;
      (** one fixed slice of the workload (set-up included); returns its deferred check *)
}

let median xs =
  match List.sort Float.compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else 0.5 *. (a.((n / 2) - 1) +. a.(n / 2))

(* nearest-rank percentile of a sorted array *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))

(* The highest percentile with at least ten samples beyond it, and its
   value; the maximum (100) when there are too few samples. *)
let tail xs =
  let a = Array.of_list (List.sort Float.compare xs) in
  let n = float_of_int (Array.length a) in
  match List.find_opt (fun p -> n *. (1. -. (p /. 100.)) >= 10.) [ 99.9; 99.; 95.; 90.; 75.; 50. ] with
  | Some p -> (p, percentile a p)
  | None -> (100., percentile a 100.)

(* ---------- timing ---------- *)

type sample = { secs : float; words : float; error : string option }

(* Words allocated so far by every domain, pool workers included
   (theirs are sampled at each of their minor collections). *)
let allocated () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let heap_peak_mb () =
  float_of_int (Gc.quick_stat ()).Gc.top_heap_words *. float_of_int (Sys.word_size / 8) /. 1e6

(* Time one call of [f]; its result goes to [keep] outside the timed
   region, which returns an error message when the result is wrong. *)
let timed ~keep f =
  let a0 = allocated () in
  let t0 = now () in
  let r = match f () with v -> Ok v | exception e -> Error (Printexc.to_string e) in
  let secs = now () -. t0 in
  let words = allocated () -. a0 in
  { secs; words; error = (match r with Ok v -> keep v | Error msg -> Some msg) }

(* Repeat [f] until [budget] seconds have passed and [min_runs] runs were made. *)
let repeat ~budget ~min_runs ~keep f =
  let start = now () in
  let rec go k acc =
    if k >= min_runs && now () -. start >= budget then List.rev acc
    else go (k + 1) (timed ~keep (fun () -> f k) :: acc)
  in
  go 0 []

let secs = List.map (fun s -> s.secs)
let words = List.map (fun s -> s.words)

let fastest = List.fold_left Float.min infinity

(* The untraced timed phase.  Set up [n] times, spread evenly over
   [ctx.seconds] (the first one, cold, before anything else), and
   between set-ups time calls [solve state k] on the latest state until
   [ctx.seconds] have passed, [min_runs] calls were made and their count
   is a multiple of [cycle].  [first] runs once on the first state,
   before the clock starts.  Set-ups interleave with solves so that both
   meet the same phases of a shared machine's speed. *)
let interleaved ?(first = ignore) ?(cycle = 1) ~n ctx ~min_runs ~keep ~setup solve =
  let n = if ctx.smoke then 1 else n in
  let state = ref None and setups = ref [] in
  let set_up () =
    let s =
      timed
        ~keep:(fun st ->
          state := Some st;
          None)
        setup
    in
    Option.iter (fun msg -> failwith ("set-up failed: " ^ msg)) s.error;
    setups := s :: !setups
  in
  set_up ();
  let latest () = Option.get !state in
  first (latest ());
  let start = now () in
  let rec go k acc =
    let elapsed = now () -. start in
    if k >= min_runs && k mod cycle = 0 && elapsed >= ctx.seconds then List.rev acc
    else begin
      let done_ = List.length !setups in
      if done_ < n && elapsed >= ctx.seconds *. float_of_int done_ /. float_of_int n then set_up ();
      let st = latest () in
      go (k + 1) (timed ~keep (fun () -> solve st k) :: acc)
    end
  in
  let samples = go 0 [] in
  (secs (List.rev !setups), latest (), samples)

(* ---------- outcome tally ---------- *)

type tally = { mutable attempted : int; mutable failed : int; mutable failures : string list }

let tally () = { attempted = 0; failed = 0; failures = [] }

let record t ?(what = "") ok =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= 8 then t.failures <- what :: t.failures
  end

let record_samples t label samples =
  List.iter
    (fun s ->
      match s.error with
      | None -> record t true
      | Some msg -> record t ~what:(label ^ ": " ^ msg) false)
    samples

let outcome t figures =
  { attempted = t.attempted; failed = t.failed; failures = List.rev t.failures; figures }

(* Keep the first result; later ones must repeat it bitwise. *)
let same_as_first ~label eq =
  let first = ref None in
  let keep v =
    match !first with
    | None ->
      first := Some v;
      None
    | Some v0 -> if eq v v0 then None else Some (label ^ " differs from the first repeat")
  in
  (first, keep)

let vco_b control = Circuit.Vco.default_params ~damping:1.57 ~force0:4.0e-3 ~control ()

(* ---------- vcob-speedup: the paper's headline ---------- *)

module Vcob = struct
  let n1 = 25
  let h2 = 5.
  let pts_per_cycle = 1000
  let nominal_period = 1.333
  let max_phase_err = 0.01

  type inputs = { window : float; period : float; swing : float }

  (* the seed moves the control period and swing by up to +-1% *)
  let inputs ctx =
    let g = rng ctx in
    let jitter () = 1. +. (0.02 *. (Random.State.float g 1. -. 0.5)) in
    let period = 1000. *. jitter () in
    let swing = 0.8 *. jitter () in
    { window = (if ctx.smoke then 30. else 300.); period; swing }

  type state = { dae : Dae.t; orbit : Steady.Oscillator.orbit; options : Wampde.Envelope.options }

  let setup inp ~wrap () =
    let frozen = vco_b (fun _ -> 1.5) in
    let orbit =
      Steady.Oscillator.find (wrap (Circuit.Vco.build frozen)) ~n1 ~period_hint:(1. /. 0.75)
        (Circuit.Vco.initial_state frozen)
    in
    let control t = 1.5 +. (inp.swing *. sin (two_pi *. t /. inp.period)) in
    { dae = wrap (Circuit.Vco.build (vco_b control)); orbit; options = Wampde.Envelope.default_options ~n1 () }

  let envelope inp st () =
    Wampde.Envelope.simulate st.dae ~options:st.options ~t2_end:inp.window ~h2 ~init:st.orbit

  let transient inp st () =
    Transient.integrate st.dae ~method_:Transient.Trapezoidal ~t0:0. ~t1:inp.window
      ~h:(nominal_period /. float_of_int pts_per_cycle)
      (Array.copy st.orbit.Steady.Oscillator.grid.(0))

  let phase_error inp env traj =
    let times = Array.init 20_001 (fun i -> inp.window *. float_of_int i /. 20_000.) in
    let comp = Circuit.Vco.idx_voltage in
    let wampde = Array.map (fun t -> Wampde.Envelope.eval_waveform env ~component:comp t) times in
    let baseline = Array.map (fun t -> Transient.interpolate traj comp t) times in
    Sigproc.Zero_crossing.max_abs_phase_error ~reference:(times, wampde) ~test:(times, baseline)

  let keepers () =
    let first_traj, keep_traj =
      same_as_first ~label:"transient" (fun a b -> a.Transient.states = b.Transient.states)
    in
    let first_env, keep_env =
      same_as_first ~label:"envelope" (fun a b ->
          a.Wampde.Envelope.omega = b.Wampde.Envelope.omega
          && a.Wampde.Envelope.slices = b.Wampde.Envelope.slices)
    in
    (first_traj, keep_traj, first_env, keep_env)

  let check inp ~transients ~traj ~envelopes ~env =
    let t = tally () in
    record_samples t "transient" transients;
    let pe = match (traj, env) with Some tr, Some e -> phase_error inp e tr | _ -> nan in
    List.iter
      (fun s ->
        match s.error with
        | Some msg -> record t ~what:("envelope: " ^ msg) false
        | None ->
          record t
            ~what:(Printf.sprintf "phase error %.4g cycles (limit %g)" pe max_phase_err)
            (pe < max_phase_err))
      envelopes;
    let steps_tr = match traj with Some tr -> Transient.steps tr | None -> 0 in
    let steps_env = match env with Some e -> Array.length e.Wampde.Envelope.t2 - 1 | None -> 0 in
    let tr_s = fastest (secs transients) and env_s = fastest (secs envelopes) in
    outcome t
      [
        fig "transient_s" tr_s "s";
        fig "envelope_s" env_s "s";
        fig "speedup_wall" (tr_s /. env_s) "x";
        fig "speedup_steps" (float_of_int steps_tr /. float_of_int steps_env) "x";
        fig "phase_err_cycles" pe "cycles";
        fig "transient_steps" (float_of_int steps_tr) "count";
        fig "envelope_steps" (float_of_int steps_env) "count";
        fig "transient_runs" (float_of_int (List.length transients)) "count";
        fig "envelope_runs" (float_of_int (List.length envelopes)) "count";
      ]

  (* One transient run per process (it takes 1.3-3 s) on the first
     set-up's state, then a compacted heap, so the timed envelope loop
     starts from the same heap state whatever the machine speed.
     Fifteen set-ups (each ~20-40 ms) spread over that loop. *)
  let measure ctx =
    let inp = inputs ctx in
    let traj, keep_traj, env, keep_env = keepers () in
    let transients = ref [] in
    let setup_s, _, envelopes =
      interleaved ~n:15 ctx ~min_runs:5 ~keep:keep_env ~setup:(setup inp ~wrap:Fun.id)
        ~first:(fun st ->
          transients := [ timed ~keep:keep_traj (transient inp st) ];
          Gc.compact ())
        (fun st _ -> envelope inp st ())
    in
    let heap_peak_mb = heap_peak_mb () in
    {
      setup_s;
      solve_s = secs envelopes;
      alloc_words = words envelopes;
      heap_peak_mb;
      outcome = check inp ~transients:!transients ~traj:!traj ~envelopes ~env:!env;
    }

  let pass ctx ~wrap =
    let inp = inputs ctx in
    let st = setup inp ~wrap () in
    let traj, keep_traj, env, keep_env = keepers () in
    let transients = [ timed ~keep:keep_traj (transient inp st) ] in
    let envelopes =
      List.init (if ctx.smoke then 1 else 3) (fun _ -> timed ~keep:keep_env (envelope inp st))
    in
    fun () -> check inp ~transients ~traj:!traj ~envelopes ~env:!env
end

(* ---------- vcoa-strong: the Krylov envelope under strong modulation ---------- *)

module Vcoa = struct
  let h2 = 2.
  let max_rel_err = 1e-8

  type inputs = { period : float; swing : float; sizes : int list; t2_end : float }

  (* the seed moves the control period by up to +-2% and trims the
     full swing by up to 2% *)
  let inputs ctx =
    let g = rng ctx in
    let period = 40. *. (1. +. (0.04 *. (Random.State.float g 1. -. 0.5))) in
    let swing = 0.75 *. (1. -. (0.02 *. Random.State.float g 1.)) in
    if ctx.smoke then { period; swing; sizes = [ 41 ]; t2_end = 10. }
    else { period; swing; sizes = [ 65; 161 ]; t2_end = 60. }

  type state = { dae : Dae.t; orbits : (int * Steady.Oscillator.orbit) list }

  let setup inp ~wrap () =
    let frozen = Circuit.Vco.default_params ~control:(fun _ -> 1.5) () in
    let free = wrap (Circuit.Vco.build frozen) in
    let orbits =
      List.map
        (fun n1 ->
          ( n1,
            Steady.Oscillator.find free ~n1 ~period_hint:(1. /. 0.75)
              (Circuit.Vco.initial_state frozen) ))
        inp.sizes
    in
    let control t = 1.5 +. (inp.swing *. sin (two_pi *. t /. inp.period)) in
    let dae = wrap (Circuit.Vco.build (Circuit.Vco.default_params ~control ())) in
    (* one slow step per size warms the FFT plans, the pool domains and
       the preconditioner path *)
    List.iter
      (fun (n1, orbit) ->
        ignore
          (Wampde.Envelope.simulate dae ~options:(Wampde.Envelope.default_options ~n1 ())
             ~t2_end:h2 ~h2 ~init:orbit))
      orbits;
    { dae; orbits }

  (* One timed solve is the whole size sweep: (n1, omega(t2), seconds) per size. *)
  let solve ?solver inp st () =
    List.map
      (fun (n1, orbit) ->
        let t0 = now () in
        let res =
          Wampde.Envelope.simulate st.dae
            ~options:(Wampde.Envelope.default_options ~n1 ?solver ())
            ~t2_end:inp.t2_end ~h2 ~init:orbit
        in
        (n1, res.Wampde.Envelope.omega, now () -. t0))
      st.orbits

  let keeper () =
    let first, same =
      same_as_first ~label:"size sweep" (fun a b ->
          List.for_all2 (fun (n, o, _) (n', o', _) -> n = n' && o = o') a b)
    in
    let per_size = Hashtbl.create 4 in
    let keep sweep =
      List.iter
        (fun (n1, _, s) ->
          Hashtbl.replace per_size n1 (s :: Option.value (Hashtbl.find_opt per_size n1) ~default:[]))
        sweep;
      same sweep
    in
    (first, per_size, keep)

  let rel_err ~test ~reference =
    if Array.length test <> Array.length reference then infinity
    else begin
      let worst = ref 0. in
      Array.iteri
        (fun i om -> worst := Float.max !worst (Float.abs (test.(i) -. om) /. Float.abs om))
        reference;
      !worst
    end

  let check inp st ~first ~per_size samples =
    let t = tally () in
    let reference =
      match solve ~solver:Linalg.Structured.Dense inp st () with
      | r -> Ok r
      | exception e -> Error (Printexc.to_string e)
    in
    record t
      ~what:(match reference with Error m -> "dense reference: " ^ m | Ok _ -> "")
      (Result.is_ok reference);
    let err =
      match (first, reference) with
      | Some sweep, Ok dense ->
        List.fold_left2
          (fun acc (_, test, _) (_, reference, _) -> Float.max acc (rel_err ~test ~reference))
          0. sweep dense
      | _ -> nan
    in
    List.iter
      (fun s ->
        match s.error with
        | Some msg -> record t ~what:msg false
        | None ->
          record t
            ~what:(Printf.sprintf "omega rel err %.3g vs dense (limit %g)" err max_rel_err)
            (err <= max_rel_err))
      samples;
    let per_size_figs =
      match reference with
      | Error _ -> []
      | Ok dense ->
        List.concat_map
          (fun (n1, _, dense_s) ->
            let krylov_s = fastest (Option.value (Hashtbl.find_opt per_size n1) ~default:[]) in
            let dim = (n1 * 4) + 1 in
            [
              fig (Printf.sprintf "solve_s.n1_%d" n1) krylov_s "s";
              fig (Printf.sprintf "dense_s.n1_%d" n1) dense_s "s";
              fig (Printf.sprintf "speedup_vs_dense.n1_%d" n1) (dense_s /. krylov_s) "x";
              fig
                (Printf.sprintf "auto_picks_krylov.n1_%d" n1)
                (if Linalg.Structured.use_krylov Linalg.Structured.auto ~dim then 1. else 0.)
                "bool";
            ])
          dense
    in
    outcome t
      ([ fig "omega_rel_err" err "rel"; fig "sweeps" (float_of_int (List.length samples)) "count" ]
      @ per_size_figs)

  let measure ctx =
    let inp = inputs ctx in
    let first, per_size, keep = keeper () in
    let setup_s, st, samples =
      interleaved ~n:8 ctx ~min_runs:3 ~keep ~setup:(setup inp ~wrap:Fun.id) (fun st _ -> solve inp st ())
    in
    (* read before the check, whose dense reference needs a larger heap *)
    let heap_peak_mb = heap_peak_mb () in
    {
      setup_s;
      solve_s = secs samples;
      alloc_words = words samples;
      heap_peak_mb;
      outcome = check inp st ~first:!first ~per_size samples;
    }

  let pass ctx ~wrap =
    let inp = inputs ctx in
    let st = setup inp ~wrap () in
    let first, per_size, keep = keeper () in
    let samples = [ timed ~keep (solve inp st) ] in
    fun () -> check inp st ~first:!first ~per_size samples
end

(* ---------- sinh-cascade: the globalization cascade ---------- *)

module Sinh = struct
  let n1 = 11
  let n2 = 11
  let p1 = 1.
  let p2 = 20.

  (* Every run solves the same betas, spread over [400, 600] where plain
     Newton fails and trust region wins; the seed only shuffles their
     order, so the timed work does not move with the seed. *)
  let grid ctx = if ctx.smoke then [ 500. ] else [ 400.; 425.; 475.; 525.; 575.; 600. ]

  let system ~wrap beta =
    let dae = wrap (Dae.of_ode ~dim:1 ~rhs:(fun ~t:_ x -> [| -.sinh (beta *. x.(0)) /. beta |]) ()) in
    let a t2 = beta *. (1. +. (0.9 *. sin (two_pi *. t2 /. p2))) in
    { Mpde.dae; p1; b_fast = (fun ~t1 ~t2 -> [| -.a t2 *. sin (two_pi *. t1 /. p1) |]) }

  (* cold start: the zero guess *)
  let solve ~wrap beta () =
    Mpde.quasiperiodic (system ~wrap beta) ~n1 ~n2 ~p2
      ~guess:(Array.init n2 (fun _ -> Array.init n1 (fun _ -> [| 0. |])))

  let keep res =
    if Array.for_all (Array.for_all (Array.for_all Float.is_finite)) res.Mpde.slices then None
    else Some "non-finite solution"

  let c_trust = Obs.Metrics.counter "newton.strategy.trust_region"

  (* trust-region attempts made by one solve; they count only while
     telemetry is on *)
  let trust_attempts f =
    let c0 = Obs.Metrics.count c_trust in
    let r = f () in
    (r, Obs.Metrics.count c_trust - c0)

  let with_telemetry f =
    let was_enabled = Obs.enabled () in
    Obs.set_enabled true;
    Fun.protect ~finally:(fun () -> Obs.set_enabled was_enabled) f

  (* set-up is one cold solve at a fixed beta: it warms the lazy caches *)
  let setup ~wrap () = ignore (solve ~wrap 500. ())

  let check ~trust samples =
    let t = tally () in
    record_samples t "solve" samples;
    List.iter
      (fun (b, n) ->
        record t ~what:(Printf.sprintf "beta %.1f: %d trust-region attempts" b n) (n >= 1))
      trust;
    outcome t
      [
        fig "solves" (float_of_int (List.length samples)) "count";
        fig "betas_checked" (float_of_int (List.length trust)) "count";
        fig "trust_region_attempts" (float_of_int (List.fold_left (fun acc (_, n) -> acc + n) 0 trust)) "count";
      ]

  (* Whole passes over the grid, each in a fresh shuffled order, until
     the budget is spent, so every beta is timed equally often.  The
     timed solves run with telemetry off; each beta is then solved once
     more with it on to see which strategy won. *)
  let measure ctx =
    let g = rng ctx and grid = Array.of_list (grid ctx) in
    let cycle = Array.length grid in
    let order = ref grid in
    let setup_s, (), samples =
      interleaved ~n:5 ctx ~cycle ~min_runs:cycle ~keep ~setup:(setup ~wrap:Fun.id) (fun () k ->
          if k mod cycle = 0 then order := Array.of_list (shuffle g (Array.to_list grid));
          solve ~wrap:Fun.id !order.(k mod cycle) ())
    in
    let heap_peak_mb = heap_peak_mb () in
    let trust =
      with_telemetry (fun () ->
          Array.to_list grid
          |> List.map (fun b ->
                 (b, match trust_attempts (solve ~wrap:Fun.id b) with _, n -> n | exception _ -> 0)))
    in
    { setup_s; solve_s = secs samples; alloc_words = words samples; heap_peak_mb; outcome = check ~trust samples }

  (* one pass over the grid; the traced pass runs with telemetry on, so
     its check sees the strategy counters *)
  let pass ctx ~wrap =
    setup ~wrap ();
    let trust = ref [] in
    let samples =
      List.map
        (fun b ->
          timed ~keep (fun () ->
              let r, n = trust_attempts (solve ~wrap b) in
              trust := (b, n) :: !trust;
              r))
        (shuffle (rng ctx) (grid ctx))
    in
    fun () -> check ~trust:(List.rev !trust) samples
end

(* ---------- serve-batch: one client, one batch, one daemon ---------- *)

module Serve_batch = struct
  type job = { id : string; line : string; twin : string option }

  let envelope ?twin ~id ~circuit ~t_end ~rtol ~n1 ~solver () =
    {
      id;
      twin;
      line =
        Printf.sprintf
          "{\"type\":\"job\",\"id\":\"%s\",\"circuit\":\"%s\",\"analysis\":\"envelope\",\"t_end\":%.3f,\"rtol\":%g,\"n1\":%d,\"solver\":\"%s\"}"
          id circuit t_end rtol n1 solver;
    }

  let quasi ~id ~n1 ~n2 =
    {
      id;
      twin = None;
      line =
        Printf.sprintf
          "{\"type\":\"job\",\"id\":\"%s\",\"circuit\":\"vco-a\",\"analysis\":\"quasiperiodic\",\"n1\":%d,\"n2\":%d}"
          id n1 n2;
    }

  (* The jobs of batch [k]: the same in every batch, so that batches
     cost the same and the fastest one is a steady figure; the seed
     shuffles their submission order (see [run_batch]).  They cover the
     mix's ranges: VCO-A n1 15-25, t_end 6-20, rtol 1e-3..1e-4.  Job a2
     repeats a1 exactly, and no other Krylov job shares a1's n1, so the
     twins meet the same preconditioner cache whatever the order. *)
  let batch ~smoke k =
    let id name = Printf.sprintf "b%d-%s" k name in
    let vco_a = "vco-a" in
    if smoke then
      [
        envelope ~id:(id "a1") ~circuit:vco_a ~t_end:6. ~rtol:1e-3 ~n1:15 ~solver:"krylov" ();
        envelope ~twin:(id "a1") ~id:(id "a2") ~circuit:vco_a ~t_end:6. ~rtol:1e-3 ~n1:15
          ~solver:"krylov" ();
        envelope ~id:(id "b1") ~circuit:"vco-b" ~t_end:5. ~rtol:1e-3 ~n1:15 ~solver:"auto" ();
      ]
    else
      [
        envelope ~id:(id "a1") ~circuit:vco_a ~t_end:12. ~rtol:3e-4 ~n1:17 ~solver:"krylov" ();
        envelope ~twin:(id "a1") ~id:(id "a2") ~circuit:vco_a ~t_end:12. ~rtol:3e-4 ~n1:17
          ~solver:"krylov" ();
        envelope ~id:(id "a3") ~circuit:vco_a ~t_end:8. ~rtol:1e-4 ~n1:25 ~solver:"auto" ();
        envelope ~id:(id "a4") ~circuit:vco_a ~t_end:20. ~rtol:1e-3 ~n1:21 ~solver:"krylov" ();
        envelope ~id:(id "a5") ~circuit:vco_a ~t_end:6. ~rtol:1e-3 ~n1:15 ~solver:"auto" ();
        envelope ~id:(id "b1") ~circuit:"vco-b" ~t_end:15. ~rtol:1e-3 ~n1:15 ~solver:"auto" ();
        quasi ~id:(id "q1") ~n1:15 ~n2:7;
      ]

  let has_prefix = Ledger.has_prefix

  (* a terminal record's fields: its job id, the job's own wall time,
     omega_end and the embedded run manifest *)
  type terminal = { job : string option; wall : float; omega_end : float option; manifest : string option }

  let terminal_of line =
    let j = match Obs.Json.parse line with Ok j -> j | Error _ -> Obs.Json.Null in
    let field k = Obs.Json.member k j in
    {
      job = Option.bind (field "id") Obs.Json.to_str;
      wall = Option.value (Option.bind (field "wall_s") Obs.Json.to_num) ~default:0.;
      omega_end = Option.bind (field "omega_end") Obs.Json.to_num;
      manifest = Option.map Obs.Json.to_string (field "manifest");
    }

  let rec remove_tree path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun name -> remove_tree (Filename.concat path name)) (Sys.readdir path);
        Unix.rmdir path
      end
      else Sys.remove path

  let work_dir = ".perfbench"

  type batch = {
    setup_s : float;  (** [Server.run] to the hello line *)
    wall_s : float;  (** hello to bye *)
    words : float;
    latencies : float list;  (** submission to terminal record, per finished job *)
    overhead_s : float;  (** batch wall minus the jobs' own wall_s *)
    jobs : int;
  }

  let shutdown = "{\"type\":\"shutdown\",\"drain\":true}"

  (* One fresh daemon: submit every job, then shutdown drain.  Checks
     go to [t]: one terminal record per job, a manifest that passes
     [Report.check], and twins with equal omega_end. *)
  let run_batch t ~g ~k jobs =
    let spool = Filename.concat work_dir (Printf.sprintf "spool-%d-%d" (Unix.getpid ()) k) in
    remove_tree spool;
    let submitted = Hashtbl.create 16 in
    let pending = Queue.create () in
    List.iter (fun j -> Queue.add (Some j.id, j.line) pending) (shuffle g jobs);
    Queue.add (None, shutdown) pending;
    let read ~block:_ =
      match Queue.take_opt pending with
      | Some (id, line) ->
        Option.iter (fun id -> Hashtbl.replace submitted id (now ())) id;
        `Line line
      | None -> `Eof
    in
    let t_hello = ref nan and t_bye = ref nan in
    let terminal = ref [] and errors = ref [] in
    let write line =
      let at = now () in
      if has_prefix line "{\"type\":\"hello\"" then t_hello := at
      else if has_prefix line "{\"type\":\"result\"" || has_prefix line "{\"type\":\"job-error\"" then
        terminal := (at, line) :: !terminal
      else if has_prefix line "{\"type\":\"error\"" then errors := line :: !errors
      else if has_prefix line "{\"type\":\"bye\"" then t_bye := at
    in
    let config = Serve.Server.default_config ~spool () in
    let was_enabled = Obs.enabled () in
    let a0 = allocated () in
    let t_run = now () in
    let code =
      Fun.protect
        ~finally:(fun () -> Obs.set_enabled was_enabled)
        (fun () ->
          Obs.Span.span "serve.run" (fun () -> Serve.Server.run config ~read ~write ~log:ignore))
    in
    let words = allocated () -. a0 in
    remove_tree spool;
    (try Unix.rmdir work_dir with Unix.Unix_error _ -> ());
    if code <> 0 then record t ~what:(Printf.sprintf "server exit code %d" code) false;
    List.iter (fun e -> record t ~what:("protocol error: " ^ e) false) !errors;
    let omega = Hashtbl.create 8 and latencies = ref [] and job_wall = ref 0. in
    let terminal = List.map (fun (at, line) -> (at, line, terminal_of line)) !terminal in
    List.iter
      (fun j ->
        match List.filter (fun (_, _, r) -> r.job = Some j.id) terminal with
        | [ (at, line, r) ] when has_prefix line "{\"type\":\"result\"" ->
          Option.iter
            (fun t0 -> latencies := (at -. t0) :: !latencies)
            (Hashtbl.find_opt submitted j.id);
          job_wall := !job_wall +. r.wall;
          Hashtbl.replace omega j.id r.omega_end;
          (* bitwise: the twin ran the same job *)
          let twin_ok =
            match j.twin with
            | None -> true
            | Some tw ->
              r.omega_end <> None
              && Option.map (Option.map Int64.bits_of_float) (Hashtbl.find_opt omega tw)
                 = Some (Option.map Int64.bits_of_float r.omega_end)
          in
          let manifest = match r.manifest with Some m -> Obs.Report.check m | None -> Error "missing" in
          (match (manifest, twin_ok) with
           | Ok (), true -> record t true
           | Error m, _ -> record t ~what:(j.id ^ ": manifest: " ^ m) false
           | Ok (), false -> record t ~what:(j.id ^ ": omega_end differs from its twin") false)
        | [ (_, line, _) ] ->
          record t ~what:(String.sub line 0 (min 200 (String.length line))) false
        | l -> record t ~what:(Printf.sprintf "%s: %d terminal records" j.id (List.length l)) false)
      jobs;
    let wall_s = !t_bye -. !t_hello in
    {
      setup_s = !t_hello -. t_run;
      wall_s;
      words;
      latencies = !latencies;
      overhead_s = wall_s -. !job_wall;
      jobs = List.length jobs;
    }

  let figures batches =
    let lat = List.concat_map (fun b -> b.latencies) batches in
    let jobs = List.fold_left (fun acc b -> acc + b.jobs) 0 batches in
    let wall = List.fold_left (fun acc b -> acc +. b.wall_s) 0. batches in
    let tail_p, tail = tail lat in
    [
      fig "jobs" (float_of_int jobs) "count";
      fig "batches" (float_of_int (List.length batches)) "count";
      fig "jobs_per_s" (float_of_int jobs /. wall) "1/s";
      fig "job_latency_p50_s" (median lat) "s";
      fig "job_latency_tail_s" tail "s";
      fig "job_latency_tail_pct" tail_p "%";
      fig "serve_overhead_s" (median (List.map (fun b -> b.overhead_s) batches)) "s";
      fig "serve_overhead_pct"
        (median (List.map (fun b -> 100. *. b.overhead_s /. b.wall_s) batches))
        "%";
    ]

  let measure ctx =
    let g = rng ctx in
    let t = tally () in
    let start = now () in
    let min_runs = if ctx.smoke then 1 else 3 in
    let rec go k acc =
      if k >= min_runs && now () -. start >= ctx.seconds then List.rev acc
      else go (k + 1) (run_batch t ~g ~k (batch ~smoke:ctx.smoke k) :: acc)
    in
    let batches = go 0 [] in
    {
      setup_s = List.map (fun b -> b.setup_s) batches;
      solve_s = List.map (fun b -> b.wall_s) batches;
      alloc_words = List.map (fun b -> b.words) batches;
      heap_peak_mb = heap_peak_mb ();
      outcome = outcome t (figures batches);
    }

  (* the daemon builds its circuits itself, so [wrap] has nothing to wrap *)
  let pass ctx ~wrap:_ =
    let t = tally () in
    let b = run_batch t ~g:(rng ctx) ~k:0 (batch ~smoke:ctx.smoke 0) in
    fun () -> outcome t (figures [ b ])
end

(* serve-batch's jobs run with one pool job, as the daemon's default
   configuration does, and are traced with two, so that the par layer
   (pool regions of the Krylov preconditioner) is measured on a workload
   whose timings hold steady; vcoa-strong, which runs the pool at both
   sizes, is too noisy on a shared host to be bounded. *)
let all =
  [
    { name = "vcob-speedup"; jobs = 1; traced_jobs = 1; measure = Vcob.measure; pass = Vcob.pass };
    { name = "vcoa-strong"; jobs = 2; traced_jobs = 2; measure = Vcoa.measure; pass = Vcoa.pass };
    {
      name = "serve-batch";
      jobs = 1;
      traced_jobs = 2;
      measure = Serve_batch.measure;
      pass = Serve_batch.pass;
    };
    { name = "sinh-cascade"; jobs = 1; traced_jobs = 1; measure = Sinh.measure; pass = Sinh.pass };
  ]
