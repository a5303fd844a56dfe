module Obs = Wampde_obs

let c_deadline = Obs.Metrics.counter "serve.watchdog.deadline_exceeded"
let c_stalled = Obs.Metrics.counter "serve.watchdog.stalled"

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
