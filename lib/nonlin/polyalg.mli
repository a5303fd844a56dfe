(** Globalization polyalgorithm: a robust solve cascade.

    Runs damped Newton and then trust region against the same system,
    each cold-started from [x0], escalating on typed failure — the
    pattern NonlinearSolve.jl calls a polyalgorithm:

    + {b damped Newton} — {!Newton.solve} / {!Newton.solve_with}
      (honoring a caller-supplied Krylov direction solver);
    + {b trust region} — {!Trust_region.solve}, dogleg on a dense
      Jacobian (this is also the Krylov-to-dense escalation).

    Which strategy won (and every escalation) is recorded in the
    [newton.strategy.*] counters and as [Strategy_escalated] events. *)

open Linalg

type strategy = Damped | Trust_region

val strategy_name : strategy -> string
(** Stable short name used in metrics and events
    ([damped], [trust_region]). *)

val default_cascade : strategy list
(** [[Damped; Trust_region]]. *)

type attempt = { strategy : strategy; report : Newton.report }

type outcome = {
  report : Newton.report;  (** winning report, or the closest failure *)
  strategy : strategy;  (** the strategy that produced [report] *)
  attempts : attempt list;  (** every strategy tried, in order *)
}

exception Solve_failed of { label : string; attempts : attempt list }
(** Raised by callers whose cascade was exhausted ([label] names the
    solve site, [attempts] every strategy tried).  A printer is
    registered. *)

(** [solve ?options ?label ?cascade ?jacobian ?linear_solve ~residual
    x0] runs the cascade and never raises on solver failure: inspect
    [outcome.report.converged].  [linear_solve] only feeds the [Damped]
    stage; [jacobian] feeds both stages (forward differences
    otherwise).  Raises [Invalid_argument] on an empty cascade. *)
val solve :
  ?options:Newton.options ->
  ?label:string ->
  ?cascade:strategy list ->
  ?jacobian:(Vec.t -> Mat.t) ->
  ?linear_solve:(Vec.t -> Vec.t -> Vec.t) ->
  residual:(Vec.t -> Vec.t) ->
  Vec.t ->
  outcome

