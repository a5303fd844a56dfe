(** Damped Newton–Raphson for square nonlinear systems.

    This is the inner solver of every implicit time step, shooting
    update and WaMPDE collocation solve in the repository. *)

open Linalg

type options = {
  max_iterations : int;  (** Newton iteration budget (default 50) *)
  residual_tol : float;  (** absolute residual infinity-norm tolerance *)
  step_tol : float;  (** scaled update infinity-norm tolerance *)
  min_damping : float;  (** smallest line-search damping factor *)
  x_scale : Vec.t option;  (** per-variable magnitudes for norms *)
}

val default_options : options

type failure_reason =
  | Singular_jacobian
  | Line_search_failed  (** damping hit [min_damping] without progress *)
  | Iteration_limit
  | Non_finite_residual
      (** the residual norm went NaN/Inf at the current iterate; the
          returned [x] is the last finite iterate *)

(** Raised by a custom [linear_solve] (see {!solve_with}) to abort the
    iteration; reported as {!Singular_jacobian}. *)
exception Linear_solve_failed of string

type report = {
  x : Vec.t;
  residual_norm : float;
  iterations : int;
  converged : bool;
  reason : failure_reason option;  (** [None] when converged *)
}

(** Caller-owned buffers of one damped Newton solve, all of the
    system's dimension: iterate, residual, direction, trial iterate
    and trial residual. *)
type workspace = { x : Vec.t; r : Vec.t; dx : Vec.t; trial : Vec.t; rt : Vec.t }

(** [workspace n] allocates a workspace for [n] unknowns. *)
val workspace : int -> workspace

(** [solve_into ?options ?label ~ws ~linear_solve_into ~residual_into x0]
    is the damped Newton iteration: the one loop behind {!solve} and
    {!solve_with}.  [residual_into x dst] writes the residual at [x]
    into [dst]; [linear_solve_into x r dx] writes into [dx] a direction
    with [J(x) dx ~ r] (the caller negates) and may raise [Lu.Singular]
    or {!Linear_solve_failed} to abort.  Neither may keep its arguments
    past the call.  The iteration runs in [ws] (its size must equal
    [x0]'s) and swaps buffers instead of allocating, so the report's
    [x] aliases one of [ws]'s buffers: copy it before [ws] is reused.
    An Armijo-style backtracking line search on the residual norm
    globalizes the iteration.

    Telemetry: each call is wrapped in a [newton.solve] span, updates
    the [newton.*] metrics and emits one [Newton_done] event per solve
    tagged with [label] (default ["newton"]), so callers can
    distinguish e.g. shooting updates from collocation solves. *)
val solve_into :
  ?options:options ->
  ?label:string ->
  ws:workspace ->
  linear_solve_into:(Vec.t -> Vec.t -> Vec.t -> unit) ->
  residual_into:(Vec.t -> Vec.t -> unit) ->
  Vec.t ->
  report

(** [solve ?options ?label ?jacobian ~residual x0] finds [x] with
    [residual x ~ 0].  When [jacobian] is omitted a forward
    finite-difference Jacobian is used.  It is {!solve_into} on a
    fresh workspace, with the Jacobian factored by [Lu.factor]. *)
val solve :
  ?options:options ->
  ?label:string ->
  ?jacobian:(Vec.t -> Mat.t) ->
  residual:(Vec.t -> Vec.t) ->
  Vec.t ->
  report

(** [solve_with ?options ?label ~linear_solve ~residual x0] is
    {!solve_into} on a fresh workspace with a pluggable allocating
    direction solver:
    [linear_solve x r] must return a fresh vector [dx] with
    [J(x) dx ~ r] (the caller negates).  This is how the matrix-free
    Newton–Krylov paths plug preconditioned {!Linalg.Gmres} solves into
    the shared globalization logic.  [linear_solve] may raise
    [Lu.Singular] or {!Linear_solve_failed} to abort. *)
val solve_with :
  ?options:options ->
  ?label:string ->
  linear_solve:(Vec.t -> Vec.t -> Vec.t) ->
  residual:(Vec.t -> Vec.t) ->
  Vec.t ->
  report

(** [scalar ?tol ?max_iterations f df x0] is 1-D Newton for convenience
    (root of [f] with derivative [df]). *)
val scalar : ?tol:float -> ?max_iterations:int -> (float -> float) -> (float -> float) -> float -> float

(** {1 Fault-injection hooks}

    Shared with {!Trust_region} so one armed {!Fault} schedule
    exercises both globalization strategies.
    Wrap only when [Fault.armed ()] — the wrappers probe on every
    call. *)

(** [fault_residual residual x] evaluates [residual x] and contaminates
    the first entry with NaN when the [Nan_residual] fault fires. *)
val fault_residual : (Vec.t -> Vec.t) -> Vec.t -> Vec.t
