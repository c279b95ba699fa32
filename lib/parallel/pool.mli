(** A domain pool for embarrassingly parallel, {e deterministic} workloads.

    Every client of this pool (experiment sweeps, [run]/[native
    --replicas], [model-check --swarm] members) runs fully independent,
    seeded simulator runs or searches: a task allocates its own
    {!Sim.Memory} and {!Sim.Runtime}, touches no global state, and
    returns a pure result. The pool therefore only has to distribute
    tasks and collect results — determinism is preserved by the {e
    callers}, which submit in a deterministic order and read results
    back in that same order ({!map} returns results positionally).

    Task granularity is one whole simulator run or search (tens of
    microseconds to minutes), so a single mutex-guarded FIFO is
    uncontended in practice. See DESIGN.md §5 (decision 10) for why this
    is preferred over per-domain work-stealing deques here.

    [jobs = 1] pools spawn no domains at all: tasks execute inline at
    {!async} time, on the submitting domain, in submission order. *)

type t

val create : jobs:int -> t
(** [create ~jobs] spawns [jobs - 1] worker domains (the submitting domain
    is the [jobs]-th worker: {!await} runs unstarted tasks inline; with
    [jobs <= 1] no domain is spawned and execution is inline). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()] — the CLI default for [--jobs]. *)

type 'a future

val async : t -> (unit -> 'a) -> 'a future
(** Submit a task. On a [jobs = 1] pool the task runs before [async]
    returns. Exceptions raised by the task are caught and re-raised at
    {!await}. *)

val await : 'a future -> 'a
(** Block until the task finishes and return its result (or re-raise its
    exception). If no worker has picked the task up yet, [await] runs it
    inline instead — [await] never deadlocks. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** [map t f xs] applies [f] to every element on the pool and returns the
    results {e in the order of [xs]}, so callers that print tables get
    byte-identical output for any [jobs]. The first exception (in [xs]
    order) is re-raised. *)

val shutdown : t -> unit
(** Drain nothing: pending tasks are dropped, running tasks are joined.
    Idempotent. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [create], run, [shutdown] (also on exception). *)
