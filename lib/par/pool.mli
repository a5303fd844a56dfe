(** Reusable domain pool for data-parallel kernels.

    One process-global pool of OCaml 5 domains, spawned lazily on the
    first parallel region and reused across solves; a [Stdlib.at_exit]
    hook tears the workers down cleanly.  Work is distributed as
    contiguous chunks with a fixed assignment (chunk [c] always covers
    [c*n/k .. (c+1)*n/k)]), so a kernel whose chunks write disjoint
    outputs and perform no cross-chunk reductions produces bitwise
    identical results for every job count — the determinism contract
    behind [--jobs N].

    The pool is instrumented in {!Wampde_obs.Metrics}:
    [pool.runs] / [pool.tasks] / [pool.spawned] counters and
    [pool.jobs] / [pool.effective_jobs] / [pool.busy_s] / [pool.idle_s]
    gauges (cumulative busy/idle seconds across all parallel regions,
    measured per chunk against the slowest chunk of its region).

    Worker domains must not touch {!Wampde_obs} (its metric cells and
    scope stack are not synchronized); kernels hoist their telemetry to
    the calling domain, which keeps counts independent of the job
    count. *)

(** [set_jobs n] sets the requested parallelism to [max 1 n].  [1]
    (the default) means fully serial: no domains are ever spawned.
    The initial value is read from the [WAMPDE_JOBS] environment
    variable.  Workers are spawned lazily and resized on demand. *)
val set_jobs : int -> unit

(** Currently requested parallelism (always [>= 1]). *)
val jobs : unit -> int

(** [parallel_chunks ?jobs n body] partitions [0..n-1] into
    [k = min (max 1 jobs) n] contiguous chunks and runs
    [body ~worker ~lo ~hi] (half-open [lo..hi)]) once per chunk:
    chunk [0] on the calling domain, chunks [1..k-1] on pool workers.
    [worker] is the chunk index, usable to pick a per-worker
    workspace.  Returns after every chunk finished.  If any chunk
    raised, the exception of the lowest-indexed raising chunk is
    re-raised (with its backtrace) after the barrier, so a typed error
    escapes cleanly and no worker is left wedged.  Calls from inside a
    pool worker (nested parallelism) degrade to serial execution.
    [?jobs] overrides the pool-level setting for this region. *)
val parallel_chunks : ?jobs:int -> int -> (worker:int -> lo:int -> hi:int -> unit) -> unit

(** [parallel_for ?jobs n f] is {!parallel_chunks} running [f j] for
    every [j] in [0..n-1]. *)
val parallel_for : ?jobs:int -> int -> (int -> unit) -> unit
