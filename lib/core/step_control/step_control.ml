module Obs = Wampde_obs

let c_accepted = Obs.Metrics.counter "step.accepted"
let c_rejected = Obs.Metrics.counter "step.rejected"
let c_retried = Obs.Metrics.counter "step.retried"
let g_h = Obs.Metrics.gauge "controller.h2"

type options = { rtol : float; atol : float; h_min : float; h_max : float }

let default_options ?(rtol = 1e-3) ?(atol = 1e-6) ?(h_min = 1e-9) ?(h_max = infinity) () =
  if rtol <= 0. || atol <= 0. then invalid_arg "Step_control: tolerances must be positive";
  if h_min <= 0. || h_max < h_min then invalid_arg "Step_control: need 0 < h_min <= h_max";
  { rtol; atol; h_min; h_max }

(* multiplier on the optimal-step estimate, the per-step growth and
   per-rejection shrink clamps, and the longest streak of consecutive
   solver failures before giving up *)
let safety = 0.9
let max_growth = 2.
let min_shrink = 0.1
let max_failures = 8

exception Underflow of { t : float; h : float }

let () =
  Printexc.register_printer (function
    | Underflow { t; h } ->
      Some
        (Printf.sprintf
           "Step_control.Underflow: step control gave up at t = %.6g (h = %.3g): the step fell \
            below h_min or solver failures dominate the run"
           t h)
    | _ -> None)

(* Crawl give-up.  Under a storm of solver failures (NaN residuals or
   failed linear solves at rates near 20 %) accepts interleave with
   failures, so the failure streak never reaches [max_failures] and the
   halved step never reaches [h_min]: the march crawls on at a tiny
   step.  Failure recovery gives up once at least [crawl_retries]
   failures have been booked and they are more than [crawl_share] of all
   decisions.  On the VCO-A envelope under random fault schedules, runs
   that recover book at most ~190 failures while crawls book thousands,
   at 8-27 % of their decisions; the share keeps a long healthy run with
   scattered failures from tripping it. *)
let crawl_retries = 256
let crawl_share = 0.05

type t = {
  opts : options;
  order : int;
  mutable h : float;
  mutable err_prev : float;  (* PI memory: scaled error of the last accepted step *)
  mutable accepted : int;
  mutable rejected : int;
  mutable retried : int;
  mutable failures : int;  (* consecutive solver failures on the current step *)
}

let clamp opts h = Float.min opts.h_max (Float.max opts.h_min h)

let create ?(order = 2) opts ~h_init =
  let h = clamp opts h_init in
  Obs.Metrics.set g_h h;
  { opts; order; h; err_prev = 1.; accepted = 0; rejected = 0; retried = 0; failures = 0 }

let options t = t.opts
let propose t ~remaining = Float.min t.h remaining

let scaled opts ~y ~err = Float.abs err /. (opts.atol +. (opts.rtol *. Float.abs y))

let error_norm opts ~y ~err =
  let n = Array.length err in
  if n = 0 then 0.
  else begin
    let s = ref 0. in
    for i = 0 to n - 1 do
      let e = scaled opts ~y:y.(i) ~err:err.(i) in
      s := !s +. (e *. e)
    done;
    sqrt (!s /. float_of_int n)
  end

let richardson_denom ~order = (2. ** float_of_int order) -. 1.

type decision = Accept of float | Reject of float

(* Hairer-style PI controller: on acceptance the next step is
   h * safety * err^(-0.7/(p+1)) * err_prev^(0.4/(p+1)); the integral
   term damps the oscillatory accept/reject cycling a pure I controller
   shows near the tolerance boundary.  Errors are floored at 1e-10 so a
   vanishing estimate maps to the max-growth clamp, not infinity. *)
let decide t ~t:t_now ~h_used ~err =
  let opts = t.opts in
  let p1 = float_of_int (t.order + 1) in
  if Float.is_finite err && err <= 1. then begin
    let e = Float.max err 1e-10 in
    let factor =
      safety *. (e ** (-0.7 /. p1)) *. (Float.max t.err_prev 1e-10 ** (0.4 /. p1))
    in
    let factor = Float.min max_growth (Float.max min_shrink factor) in
    t.err_prev <- e;
    t.accepted <- t.accepted + 1;
    t.failures <- 0;
    t.h <- clamp opts (h_used *. factor);
    Obs.Metrics.incr c_accepted;
    Obs.Metrics.set g_h t.h;
    Obs.Health.note_decision ~t:t_now ~outcome:`Accept ();
    if Obs.Events.active () then Obs.Events.emit (Obs.Events.Step_accept { t = t_now; h = h_used });
    Accept t.h
  end
  else begin
    let e = if Float.is_finite err then err else 1e10 in
    let factor =
      Float.min 0.9 (Float.max min_shrink (safety *. (e ** (-1. /. p1))))
    in
    let h_retry = h_used *. factor in
    t.rejected <- t.rejected + 1;
    Obs.Metrics.incr c_rejected;
    Obs.Health.note_decision ~t:t_now ~outcome:`Reject ();
    if Obs.Events.active () then
      Obs.Events.emit (Obs.Events.Step_reject { t = t_now; h = h_used; reason = "error control" });
    if h_retry < opts.h_min then raise (Underflow { t = t_now; h = h_retry });
    t.h <- h_retry;
    Obs.Metrics.set g_h t.h;
    Reject t.h
  end

let record_accept t ~t:t_now ~h_used =
  t.accepted <- t.accepted + 1;
  t.failures <- 0;
  t.h <- clamp t.opts (h_used *. max_growth);
  Obs.Metrics.incr c_accepted;
  Obs.Metrics.set g_h t.h;
  Obs.Health.note_decision ~t:t_now ~outcome:`Accept ();
  if Obs.Events.active () then Obs.Events.emit (Obs.Events.Step_accept { t = t_now; h = h_used })

let failure_retry t ~t:t_now ~h_used ~reason =
  t.retried <- t.retried + 1;
  t.failures <- t.failures + 1;
  Obs.Metrics.incr c_retried;
  Obs.Health.note_decision ~t:t_now ~outcome:`Retry ();
  let h_retry = h_used /. 2. in
  if Obs.Events.active () then
    Obs.Events.emit (Obs.Events.Step_retry { t = t_now; h = h_used; h_next = h_retry; reason });
  let crawling =
    t.retried >= crawl_retries
    && float_of_int t.retried > crawl_share *. float_of_int (t.accepted + t.rejected + t.retried)
  in
  if h_retry < t.opts.h_min || t.failures > max_failures || crawling then
    raise (Underflow { t = t_now; h = h_retry });
  t.h <- h_retry;
  Obs.Metrics.set g_h t.h;
  h_retry

let should_escalate t = t.failures >= 2

type snapshot = {
  s_h : float;
  s_err_prev : float;
  s_accepted : int;
  s_rejected : int;
  s_retried : int;
  s_failures : int;
}

let snapshot t =
  {
    s_h = t.h;
    s_err_prev = t.err_prev;
    s_accepted = t.accepted;
    s_rejected = t.rejected;
    s_retried = t.retried;
    s_failures = t.failures;
  }

let restore t s =
  t.h <- s.s_h;
  t.err_prev <- s.s_err_prev;
  t.accepted <- s.s_accepted;
  t.rejected <- s.s_rejected;
  t.retried <- s.s_retried;
  t.failures <- s.s_failures;
  Obs.Metrics.set g_h t.h

let snapshot_to_floats s =
  [|
    s.s_h;
    s.s_err_prev;
    float_of_int s.s_accepted;
    float_of_int s.s_rejected;
    float_of_int s.s_retried;
    float_of_int s.s_failures;
  |]

let snapshot_of_floats a =
  if Array.length a <> 6 then invalid_arg "Step_control.snapshot_of_floats: expected 6 entries";
  {
    s_h = a.(0);
    s_err_prev = a.(1);
    s_accepted = int_of_float a.(2);
    s_rejected = int_of_float a.(3);
    s_retried = int_of_float a.(4);
    s_failures = int_of_float a.(5);
  }
