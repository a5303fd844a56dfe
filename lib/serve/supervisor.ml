module Obs = Wampde_obs

let c_deadline = Obs.Metrics.counter "serve.watchdog.deadline_exceeded"
let c_stalled = Obs.Metrics.counter "serve.watchdog.stalled"
let c_trips = Obs.Metrics.counter "serve.breaker.trips"
let c_fast_fails = Obs.Metrics.counter "serve.breaker.fast_fails"
let c_probes = Obs.Metrics.counter "serve.breaker.probes"
let c_closes = Obs.Metrics.counter "serve.breaker.closes"

(* ---------- watchdog ---------- *)

exception Deadline_exceeded
exception Stalled of { idle_s : float }

type watch = {
  deadline_at : float;  (* absolute wall clock; infinity = no deadline *)
  stall_s : float;  (* max quiet interval; infinity = no stall check *)
  mutable last_touch : float;
  mutable last_evals : int;  (* [dae.evals] at the last tick *)
}

(* The SIGALRM handler is installed once and consults this cell; a
   per-guard install/restore would race a queued signal against the
   restored [Signal_default] and kill the process. With no active
   watch the handler is a no-op, so leaving it installed is safe. *)
let current : watch option ref = ref None
let installed = ref false

let touch () =
  match !current with None -> () | Some w -> w.last_touch <- Unix.gettimeofday ()

(* Every solver evaluates its circuit through [Dae.t.eval_into], which
   bumps [dae.evals]: a count that moved since the last tick proves the
   job is working even when no macro step completes within the stall
   window (a long Newton or periodic solve). *)
let c_evals = Obs.Metrics.counter "dae.evals"

let check_watch w =
  let now = Unix.gettimeofday () in
  let evals = Obs.Metrics.count c_evals in
  if evals <> w.last_evals then begin
    w.last_evals <- evals;
    w.last_touch <- now
  end;
  if now >= w.deadline_at then begin
    current := None;
    Obs.Metrics.incr c_deadline;
    raise Deadline_exceeded
  end
  else begin
    let idle = now -. w.last_touch in
    if idle >= w.stall_s then begin
      current := None;
      Obs.Metrics.incr c_stalled;
      raise (Stalled { idle_s = idle })
    end
  end

let install_handler () =
  if not !installed then begin
    installed := true;
    Sys.set_signal Sys.sigalrm
      (Sys.Signal_handle (fun _ -> match !current with None -> () | Some w -> check_watch w))
  end

let set_itimer interval =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL { Unix.it_interval = interval; it_value = interval })

(* The timer must tick well inside the tightest limit or a stall
   detection can be late by a whole period; clamp so we neither spin
   at sub-ms granularity nor sleep through short deadlines. *)
let tick_for ~deadline_s ~stall_s =
  let tightest = Float.min deadline_s stall_s in
  Float.max 0.005 (Float.min 0.25 (tightest /. 8.))

let guard ?deadline_s ?stall_s f =
  let deadline_s = Option.value deadline_s ~default:Float.infinity in
  let stall_s = Option.value stall_s ~default:Float.infinity in
  if deadline_s = Float.infinity && stall_s = Float.infinity then f ()
  else begin
    install_handler ();
    let now = Unix.gettimeofday () in
    let w =
      {
        deadline_at = now +. deadline_s;
        stall_s;
        last_touch = now;
        last_evals = Obs.Metrics.count c_evals;
      }
    in
    current := Some w;
    set_itimer (tick_for ~deadline_s ~stall_s);
    Fun.protect
      ~finally:(fun () ->
        current := None;
        set_itimer 0.)
      f
  end

(* ---------- seeded exponential backoff ---------- *)

(* splitmix64 finalizer: decorrelates (seed, attempt) into a uniform
   jitter so retries are deterministic per job yet spread across a
   fleet of jobs failing at the same instant. *)
let mix64 x =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let backoff_s ~base ~attempt ~seed =
  let attempt = max 1 attempt in
  let scale = Float.min (Float.of_int (1 lsl min 16 (attempt - 1))) 1e4 in
  let bits = mix64 (Int64.add (Int64.of_int seed) (Int64.mul 0x9e3779b97f4a7c15L (Int64.of_int attempt))) in
  let u = Int64.to_float (Int64.shift_right_logical bits 11) /. 9007199254740992. in
  base *. scale *. (1. +. (0.5 *. u))

(* ---------- circuit breaker ---------- *)

module Breaker = struct
  type phase =
    | Closed of { mutable streak : int }
    | Open of { until : float }
    | Half_open  (* one probe in flight *)

  type t = {
    threshold : int;
    cooldown_s : float;
    table : (string, phase) Hashtbl.t;
  }

  let create ~threshold ~cooldown_s =
    { threshold = max 1 threshold; cooldown_s = Float.max 0. cooldown_s; table = Hashtbl.create 8 }

  type decision = Proceed | Probe | Fast_fail of { retry_after_s : float }

  let decide t ~key ~now =
    match Hashtbl.find_opt t.table key with
    | None | Some (Closed _) -> Proceed
    | Some (Open { until }) when now >= until ->
      Hashtbl.replace t.table key Half_open;
      Obs.Metrics.incr c_probes;
      Probe
    | Some (Open { until }) ->
      Obs.Metrics.incr c_fast_fails;
      Fast_fail { retry_after_s = until -. now }
    | Some Half_open ->
      (* a probe is already in flight; don't pile on *)
      Obs.Metrics.incr c_fast_fails;
      Fast_fail { retry_after_s = t.cooldown_s }

  let success t ~key =
    (match Hashtbl.find_opt t.table key with
    | Some Half_open -> Obs.Metrics.incr c_closes
    | _ -> ());
    Hashtbl.replace t.table key (Closed { streak = 0 })

  let failure t ~key ~now =
    let trip () =
      Obs.Metrics.incr c_trips;
      Hashtbl.replace t.table key (Open { until = now +. t.cooldown_s })
    in
    match Hashtbl.find_opt t.table key with
    | None -> if t.threshold <= 1 then trip () else Hashtbl.replace t.table key (Closed { streak = 1 })
    | Some (Closed c) ->
      c.streak <- c.streak + 1;
      if c.streak >= t.threshold then trip ()
    | Some Half_open -> trip ()  (* failed probe: straight back to open *)
    | Some (Open _) -> ()

  (* A half-open probe that ends without a solver verdict (cancelled,
     preempted, deadline-blown) must not wedge the key in [Half_open]
     forever: put it back to [Open] so a later call re-probes. *)
  let release t ~key ~now =
    match Hashtbl.find_opt t.table key with
    | Some Half_open -> Hashtbl.replace t.table key (Open { until = now +. t.cooldown_s })
    | _ -> ()

  let phase_name = function Closed _ -> "closed" | Open _ -> "open" | Half_open -> "half-open"

  let states t =
    Hashtbl.fold
      (fun key phase acc ->
        match phase with
        | Closed { streak = 0 } -> acc
        | _ -> (key, phase_name phase) :: acc)
      t.table []
    |> List.sort compare
end
