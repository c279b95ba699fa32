(** Native stress/throughput harness: N domains hammer one recoverable
    lock over the {!Run} kernel, a controller injects stop-the-world
    crashes, and online monitors track the same properties the
    simulator's driver checks: CS occupancy and lost updates on an
    intentionally unprotected counter (one {!Monitor} slot), and CSR. *)

type sample = { at : float;  (** seconds since the run started *)
                total_passages : int }

type result = {
  n : int;
  lock_name : string;
  completed : int array;  (** per worker, index 1..n *)
  crashes : int;
  me_violations : int;
  csr_violations : int;
  csr_reentries : int;
  cs_completions : int;
  counter : int;
      (** protected plain (non-atomic) counter; equals [cs_completions]
          unless mutual exclusion broke *)
  elapsed : float;  (** seconds *)
  samples : sample array;
      (** passages/s time series from the periodic sampler; empty unless
          [sample_interval] was given *)
  spin : Backoff.mode;  (** spin policy the run's crash handle used *)
  pinned : int;
      (** workers whose core pin actually landed; 0 unless [~pin:true]
          on a platform with affinity support *)
  passage_ns : Sim.Stats.t option;
      (** per-passage latency histogram in monotonic ns, all workers
          merged; [Some] iff the run was armed with [~latency:true] *)
  alloc_words_per_passage : float option;
      (** worker 1's minor-heap words per steady-state passage
          ({!Run.outcome.alloc_words_per_op}: the first fifth of the
          budget is warmup); [Some] iff the run was armed with
          [~alloc_probe:true] and worker 1 passed the warmup mark *)
}

val run :
  ?crash_interval:float ->
  ?max_crashes:int ->
  ?seed:int ->
  ?sample_interval:float ->
  ?spin:Backoff.mode ->
  ?pin:bool ->
  ?latency:bool ->
  ?alloc_probe:bool ->
  ?run_for:float ->
  n:int ->
  passages:int ->
  make:(Crash.t -> n:int -> Intf.rme) ->
  unit ->
  result
(** [run ~n ~passages ~make ()] runs [n] worker domains over the {!Run}
    kernel (start barrier, window, probe, pinning; [elapsed] counts from
    the moment all workers are live), each executing [passages]
    passages. Every passage polls the crash flag once inside the
    critical section, so crashed-in-CS recovery is exercised.
    [crash_interval] (seconds) arms the crash controller; [max_crashes]
    (default 50) bounds it. [seed] jitters each interval over
    [dt/2, 3dt/2) with a seeded PRNG, so the crash {e schedule} replays
    (the interleaving underneath is still real hardware concurrency),
    and seeds the spin-backoff streams. [sample_interval] (seconds, min
    1ms) arms a passive sampler thread recording the total-passage
    counter ({!result.samples}). With neither armed the main domain
    just joins.

    Hardware knobs (DESIGN.md §5.15): [spin] picks the spin-wait policy
    (default {!Backoff.Exponential}); [pin] (default false) pins workers
    to cores, best-effort; [latency] arms per-passage latency histograms
    (monotonic ns); [alloc_probe] measures worker 1's steady-state
    minor-heap allocation per passage (failure-free runs only). Latency
    recording boxes a float per passage, so don't combine it with
    [alloc_probe] on a row whose audit must read zero. [run_for]
    (seconds) stops workers from starting new passages once the window
    closes, whatever [passages] remains: windows much longer than an OS
    timeslice measure the contended steady state instead of the bimodal
    finished-before-overlap mix that fixed budgets produce. *)

val schema : Sim.Json.Schema.doc
(** ["rme-native-metrics/1"], the shape {!metrics} emits ([native
    --metrics]). *)

val metrics : result -> Sim.Json.t
(** The result as JSON ({!schema}): the monitor
    counters, per-domain passage counts, overall throughput, the spin
    policy and pin count, the sampler's time series, and — when armed —
    the passage-latency histogram and the allocation audit. *)

val metrics_json : result -> string
(** {!metrics}, pretty-printed, newline-terminated. *)

val check_clean : result -> (unit, string) Stdlib.result
(** [Ok ()] iff all workers finished with no ME violations and no lost
    updates. *)

val pp_result : Format.formatter -> result -> unit
