(** The service load harness: n worker domains replay pregenerated
    open-loop {!Traffic} against a sharded {!Table} through batching
    {!Client}s, with the crash-recovery drill (system-wide epoch bump
    under load; the controller measures time-to-drain of the recovery
    barrier across the shards that were hot at the bump) and
    machine-readable metrics under the ["rme-service-metrics/1"] schema.
    Methodology notes in DESIGN.md §5.17. *)

type drill_report = {
  d_epoch : int;  (** epoch after the bump *)
  d_hot : int;  (** materialized, not-yet-drained shards right after it *)
  d_drained : int;  (** how many of those drained before the timeout *)
  d_drain_s : float;  (** crash declaration → last hot shard served *)
  d_sweeps : int;  (** recovery passages performed by worker sweeps *)
}

type result = {
  stack : string;
  n : int;
  keys : int;
  shards : int;
  theta : float;
  rate_rps : float;
  think_ns : int;
  batch : int;
  budget : int;  (** per-worker request budget (stream prefix length) *)
  served : int array;  (** per worker (index 0 = pid 1) *)
  shard_served : int array;  (** length [shards]; harness-side counts *)
  issued : int array;  (** per-shard histogram of the issued prefix *)
  table_completions : int array;  (** the table's own per-shard counts *)
  materialized : int;
  me_violations : int;
  lost_update_shards : int;
  crashes : int;
  batches : int;  (** lock passages performed *)
  max_batch : int;
  elapsed : float;
  spin : Rme_native.Backoff.mode;
  pinned : int;
  traffic_fingerprint : int;
  open_loop : bool;
      (** latency kind: arrival→completion when paced ([rate_rps > 0]),
          admit→completion when saturating *)
  latency_ns : Sim.Stats.t;  (** aggregate over all served requests *)
  shard_latency : (int * int * Sim.Stats.t) list;
      (** (shard, served, histogram) for the hottest shards, by count *)
  drill : drill_report option;
  alloc_words_per_req : float option;
      (** worker 1's minor words per steady-tail served request, when
          armed with [~alloc_probe:true] (arm it on drill-free runs) *)
}

val run :
  ?stack:string ->
  ?model:Sim.Memory.model ->
  ?padded:bool ->
  ?shards:int ->
  ?theta:float ->
  ?rate_rps:float ->
  ?think_ns:int ->
  ?batch:int ->
  ?spin:Rme_native.Backoff.mode ->
  ?pin:bool ->
  ?alloc_probe:bool ->
  ?run_for:float ->
  ?drill_after:float ->
  ?drill_timeout:float ->
  ?traffic_budget:int ->
  ?seed:int ->
  n:int ->
  keys:int ->
  per_worker:int ->
  unit ->
  result
(** Spawn [n] domains serving [per_worker] requests each over a
    [keys]-key table. [traffic_budget] (default [per_worker]) generates
    longer streams than are served, so a shrunk run replays a prefix of
    the full workload; [run_for] caps the serving window in seconds
    (leaving a tail unserved); [drill_after] arms the crash drill that
    many seconds after all workers are live. Defaults: [stack]
    ["t3-mcs"], 1024 [shards], [theta] 0.99, saturating arrivals,
    [batch] 16, exponential [spin], padded cells, seed 1. *)

val fold_served :
  shard_of:(int -> int) ->
  budget:int ->
  Traffic.stream array ->
  served:Bytes.t array ->
  lat:int array array ->
  wshard_served:int array array ->
  int array * int array * Sim.Stats.t * (int * int * Sim.Stats.t) list
(** The post-join fold behind [run]'s result, exposed for its test. Per
    worker [w]: the first [budget] requests of stream [w], their served
    flags ([served.(w)], byte [\001] = served), their latencies in ns
    ([lat.(w)]) and the worker's per-shard served counts
    ([wshard_served.(w)], one slot per shard). Returns [(shard_served,
    issued, latency_ns, shard_latency)] as in {!result}. *)

val schema : Sim.Json.Schema.doc
(** ["rme-service-metrics/1"], the shape {!metrics} emits ([service
    --metrics]). *)

val total_served : result -> int

val served_exactly : result -> bool
(** Every stream request served exactly once: per-shard served = issued =
    the table's own completions. Holds for completed (untimed) runs. *)

val check_clean : result -> (unit, string) Stdlib.result
(** No ME violations, no lost updates, and (when a drill ran) every hot
    shard drained. *)

val metrics : result -> Sim.Json.t
val metrics_json : result -> string

val pp_result : Format.formatter -> result -> unit
