(** The experiment driver: N client processes executing passages over a
    recoverable mutex inside the simulator, under a configurable schedule
    with crash injection, while monitors check the paper's correctness
    properties and collect per-passage RMR statistics.

    The run is a {!Scenario} composition: the {!Scenario.rme_passages}
    workload with {!Scenario.mutex_monitors},
    {!Scenario.lost_update_monitor}, {!Scenario.overtaking} and
    {!Scenario.passage_stats} — the same monitors the storms and the
    model checker run — stepped by {!Sim.Runtime.run}. The driver plays
    the role of the {e environment}: its bookkeeping (completed-passage
    counts, property monitors, statistics) lives in plain OCaml state —
    conceptually the application's NVRAM plus an omniscient observer —
    and never touches simulated shared memory, so it cannot perturb RMR
    accounting.

    Each client loops: leave the NCS, run [recover], [enter], execute a
    critical section that increments a {e protected} shared counter (a
    lost-update detector independent of the occupancy monitor), then
    [exit]. A crash step restarts every client; clients whose passage was
    interrupted retry it, which is exactly the model's super-passage
    obligation. *)

type report = {
  n : int;
  model : Sim.Memory.model;
  lock_name : string;
  completed : int array;  (** passages completed per process (index 1..n) *)
  target : int;
  all_done : bool;  (** every process reached its target *)
  total_steps : int;
  total_rmrs : int;
  crashes : int;
  me_violations : int;
      (** CS occupancy violations — must be 0 for every correct stack *)
  csr_violations : int;
      (** entries into the CS that overtook a crashed-in-CS owner *)
  csr_reentries : int;
      (** times a crashed-in-CS owner re-entered first, as CSR demands *)
  cs_completions : int;
  counter_value : int;
      (** final value of the protected counter; equals [cs_completions]
          unless mutual exclusion was violated (lost update) *)
  max_overtaking : int;
      (** max, over processes p and super-passages, of the number of CS
          entries by other processes while p was waiting to enter *)
  steady_rmrs : Sim.Stats.t;  (** per-passage RMRs, steady-state passages *)
  recovery_rmrs : Sim.Stats.t;
      (** per-passage RMRs, passages that start a new epoch for their
          process (first-boot and post-crash) *)
  leader_recovery_rmrs : Sim.Stats.t;
      (** recovery passages of the epoch's {e leader} — the first process
          to begin a passage in each epoch, the one that typically wins
          Transformation 1's leader CAS and pays the base-lock reset *)
  follower_recovery_rmrs : Sim.Stats.t;
      (** recovery passages of everyone else (non-leaders) *)
  steady_recover_section_rmrs : Sim.Stats.t;
  recovery_recover_section_rmrs : Sim.Stats.t;
  exit_steps : Sim.Stats.t;  (** bounded-exit witness *)
  steady_recover_steps : Sim.Stats.t;  (** bounded-recovery witness *)
  steady_passage_steps : Sim.Stats.t;
      (** end-to-end step latency (shared-memory ops) per steady passage *)
  recovery_passage_steps : Sim.Stats.t;
      (** end-to-end step latency per recovery passage *)
}

val run :
  ?max_steps:int ->
  ?passages:int ->
  n:int ->
  model:Sim.Memory.model ->
  make:(Sim.Memory.t -> Rme.Rme_intf.rme) ->
  schedule:Sim.Schedule.t ->
  unit ->
  report
(** [run ~n ~model ~make ~schedule ()] executes one simulation.
    [passages] (default 100) is the per-process target; [max_steps]
    (default 2,000,000) is a hard safety budget that also bounds wedged
    configurations (e.g. unprotected locks after a crash). *)

val pp_report : Format.formatter -> report -> unit

val schema : Sim.Json.Schema.doc
(** ["rme-metrics/1"], the shape {!metrics} emits ([run --metrics]). *)

val metrics : report -> Sim.Json.t
(** The whole report as JSON ({!schema}): every scalar plus
    the full histogram (with p50/p90/p99) of every statistic. Purely
    derived from the report, so same-seed runs serialize
    byte-identically. *)

val metrics_json : report -> string
(** {!metrics}, pretty-printed, newline-terminated. *)

val check_clean : report -> (unit, string) result
(** [Ok ()] iff the run finished with no property violations and no lost
    updates; [Error what] describes the first discrepancy. For tests. *)
