(** Natural-parameter continuation.

    Tracks a solution branch of [F(x, lambda) = 0] from [lambda_from]
    to [lambda_to], adapting the parameter step to Newton behaviour.
    Used to walk oscillator solutions from easy operating points to
    hard ones (e.g. ramping nonlinearity strength or forcing
    amplitude). *)

open Linalg

type point = { lambda : float; x : Vec.t }

exception Step_underflow of { lambda : float; step : float; last : Newton.report option }
(** The continuation step shrank below [min_step] at [lambda] without
    the corrector converging; [last] is the most recent Newton report
    (if any corrector ran).  A printer is registered. *)

(** [trace ?options ?initial_step ?min_step ?max_step ~residual ~from_ ~to_ x0]
    returns the list of accepted continuation points ending exactly at
    [to_].  [residual lambda x] evaluates [F(x, lambda)].

    Raises {!Step_underflow} if the step shrinks below [min_step]
    without the corrector converging. *)
val trace :
  ?options:Newton.options ->
  ?initial_step:float ->
  ?min_step:float ->
  ?max_step:float ->
  residual:(float -> Vec.t -> Vec.t) ->
  from_:float ->
  to_:float ->
  Vec.t ->
  point list
