(** Sharded table of logical RME locks on the native backend: millions of
    keys hashed onto a bounded shard array, each shard lazily
    materializing one lock stack from the {!Rme_native.Stack} registry on
    first touch (CAS-install, so materialization never serializes other
    shards and stays off the steady-state passage path).

    Monitoring is one {!Rme_native.Monitor} slot per shard (logical
    mutual exclusion, lost updates), plus the epoch of each shard's last
    completed passage (what the crash drill watches drain). The passage
    path — [acquire]/[serve]/[release] on a materialized shard — is
    allocation-free. *)

type t

val create :
  ?model:Sim.Memory.model ->
  ?padded:bool ->
  ?shards:int ->
  stack:string ->
  keys:int ->
  crash:Rme_native.Crash.t ->
  n:int ->
  unit ->
  t
(** [create ~stack ~keys ~crash ~n ()] prepares an empty table for worker
    pids [1..n]. [stack] names a {!Rme_native.Stack.recoverable_names}
    entry used for every shard; [shards] defaults to 1024.
    @raise Invalid_argument on an unknown stack or nonpositive sizes. *)

val shard_of_key : shards:int -> int -> int
(** The key→shard spread (one avalanche round of the fingerprint mix) —
    exposed so traffic-shape analysis agrees with the runtime mapping. *)

val shard_of : t -> int -> int
(** [shard_of t key] = [shard_of_key ~shards:(shards t) key]. *)

val acquire : t -> pid:int -> epoch:int -> shard:int -> unit
(** Materialize the shard if needed, run the lock's recover+enter, and
    check the occupancy monitor. May raise {!Rme_native.Crash.Crashed}
    from the lock's backend operations. *)

val serve : t -> shard:int -> unit
(** One request's critical-section work (counter bump). Call between
    [acquire] and [release], once per batched request. *)

val release : t -> pid:int -> epoch:int -> shard:int -> unit
(** Release monitors, stamp the shard's served-epoch, and exit the lock. *)

val abandon_held : t -> pid:int -> unit
(** Post-crash cleanup: release the occupancy monitor iff [pid] died
    holding a shard. Call first on the worker's re-entry path. *)

val repair_engaged : t -> pid:int -> epoch:int -> int
(** Post-crash, after {!abandon_held} and before any other passage: one
    recovery passage over the shard whose passage this pid crashed
    inside, if any. Mandatory ordering — the lock's recovery barriers
    park other pids until this pid re-passages exactly that shard, so
    sweeping other shards first can deadlock two workers against each
    other's abandoned locks (DESIGN.md §5.17). Returns the passages
    performed (0 or 1). *)

val sweep : t -> pid:int -> epoch:int -> int
(** One recovery passage over every materialized shard in this worker's
    partition ([shard mod n = pid - 1]); returns the passages performed.
    The n workers' sweeps jointly drain the recovery barrier. *)

val undrained : t -> epoch:int -> int
(** Materialized shards whose last completed passage predates [epoch] —
    the drill controller spins on this reaching zero. *)

val shards : t -> int
val keys : t -> int
val stack_name : t -> string
val crash_handle : t -> Rme_native.Crash.t
val materialized : t -> int
val me_violations : t -> int
val completions : t -> int
val shard_completions : t -> int array
val lost_update_shards : t -> int
