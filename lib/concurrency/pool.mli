(** A fixed-size pool of OCaml 5 domains with a shared work queue and
    futures.

    The pool is the single concurrency primitive of the engine: the
    executor's [Exchange] operator fans work out through it. A pool of
    size [n] runs at most [n] tasks at once: [n - 1] resident worker
    domains plus the caller, which "helps" by running queued tasks
    while it waits on a future — so nested [parallel_map] calls from
    inside a task cannot deadlock.

    The [jobs] setting (CLI [--jobs N] / [XOMATIQ_JOBS]) governs a
    process-global pool, created lazily and resized on demand. Parallel
    code paths must degrade to plain sequential execution when
    [jobs () <= 1]; results must never depend on the setting. *)

type t
(** A pool of worker domains. *)

val create : int -> t
(** [create n] makes a pool of total size [max 1 n]: [n - 1] worker
    domains are spawned immediately and live until {!shutdown}. *)

val size : t -> int
(** Total parallelism of the pool (worker domains + the helping caller). *)

val shutdown : t -> unit
(** Drain nothing, finish running tasks, join all worker domains.
    Idempotent. Submitting to a shut-down pool runs tasks inline. *)

type 'a future

val submit : t -> (unit -> 'a) -> 'a future
(** Enqueue a task; it runs on any pool domain (or on a caller inside
    {!await}). Exceptions are captured and re-raised by {!await}. *)

val await : t -> 'a future -> 'a
(** Block until the future is resolved, running other queued tasks while
    waiting. Re-raises the task's exception (with its backtrace) if it
    failed. *)

val available : t -> int
(** Idle worker domains right now: workers neither executing a task nor
    already promised to one sitting in the queue. Advisory — no
    reservation is taken — and the basis of the scheduler's "workers
    only when the pool is idle" grant ({!Sched.exchange_parallel}). *)

val parallel_map : t -> ('a -> 'b) -> 'a list -> 'b list
(** Apply [f] to every element across the pool; results are returned in
    input order. The first exception (by input order) is re-raised.
    Sequential [List.map] when the pool size is 1. *)

(** {2 The process-global pool} *)

val default_jobs : unit -> int
(** [XOMATIQ_JOBS] when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()], clamped to [\[1, 64\]]. *)

val jobs : unit -> int
(** The effective jobs setting (the global pool's size). Planner
    decisions and plan-cache keys depend on this value. *)

val set_jobs : int -> unit
(** Resize the global pool (shutting down the old one, if any). Values
    are clamped to [\[1, 64\]]. *)

val get : unit -> t
(** The global pool, created lazily at the current jobs setting. *)

val peek : unit -> t option
(** The global pool if some call already created it, without creating
    one. The adaptive scheduler's Exchange gate peeks so that a process
    whose queries all run inline never spawns worker domains — resident
    idle domains tax every query through the stop-the-world GC
    rendezvous on hosts without spare cores. *)

val with_jobs : int -> (unit -> 'a) -> 'a
(** Run a thunk with the global jobs setting temporarily overridden
    (restored on exit, even on exceptions). Used by tests and benches to
    pin a jobs level. An override above 1 creates the pool eagerly, so
    adaptive Exchange gates (which only {!peek}) can grant workers. *)
