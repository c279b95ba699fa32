(** [Scenario.Builder]: composable checkable workloads (DESIGN.md §5.16).

    A scenario is assembled from a {e workload} (the per-process program,
    exposing template points as {!probes}) and a list of {e monitor sets}
    (reusable checkers: mutual exclusion, CSR, lost-update, barrier
    spec). {!to_scenario} wires them into a {!Model_check.scenario}:
    the monitors' probes are chained in monitor order, and each monitor
    hands the checker its state as data — a {!Model_check.declared} —
    followed by the workload's progress arrays. From that one list the
    checker derives both state keys, the restore at every reset, the
    crash and finish hooks and the name-based readers, so no monitor
    registers anything by hand (the DESIGN.md §5.13 footgun, where a
    forgotten fingerprint registration lets [--reduce] merge two
    monitor-distinct states and prune a violation, cannot happen).

    Instantiation order is part of the contract: the workload allocates
    its shared cells first, monitor sets second, in list order; the
    committed cell names and fingerprints depend on it.

    Failure schedules: beyond {!Model_check.explore}'s systematic
    crashes, {!storm} drives a single seeded run combining a
    {!Sim.Schedule.t} (steps, system-wide crashes, independent crashes)
    with the injectable faults of {!Sim.Runtime} — lost wakeups and
    delayed-visibility windows — and returns the decision trace, which
    {!Shrink.minimize} can reduce to a minimal counterexample. *)

open Sim

(** The template points a workload offers to monitors. For a lock
    workload: [arriving] as a passage leaves the NCS (before [recover]),
    [starting] before [enter], [entered] just after, [in_cs] inside the
    critical section (this is where the lost-update monitor increments
    the protected counter), [exiting] before [exit], [exited] after it.
    A barrier workload uses [starting]/[entered] around its round. All
    calls are plain OCaml unless a monitor deliberately performs
    {!Sim.Proc} operations (only the lost-update monitor does). *)
type probes = {
  arriving : pid:int -> epoch:int -> unit;
  starting : pid:int -> epoch:int -> unit;
  entered : pid:int -> epoch:int -> unit;
  in_cs : pid:int -> epoch:int -> unit;
  exiting : pid:int -> epoch:int -> unit;
  exited : pid:int -> epoch:int -> unit;
}

(** One checker: the probes it listens on (each optional) and its
    declared state — verdict refs and arrays, counters, histograms,
    restore-only state and crash/finish hooks (see
    {!Model_check.declared}). *)
type monitor = {
  m_arriving : (pid:int -> epoch:int -> unit) option;
  m_starting : (pid:int -> epoch:int -> unit) option;
  m_entered : (pid:int -> epoch:int -> unit) option;
  m_in_cs : (pid:int -> epoch:int -> unit) option;
  m_exiting : (pid:int -> epoch:int -> unit) option;
  m_exited : (pid:int -> epoch:int -> unit) option;
  m_state : Model_check.declared;
}

val blank : monitor
(** A monitor with every probe unset that declares nothing — the base
    for [{ blank with ... }] literals. *)

type monitor_set = Memory.t -> violation:(string -> unit) -> monitor list
(** Monitors are instantiated per run. A set may return several wired
    monitors (e.g. {!mutex_monitors}'s mutex and CSR checkers share the
    occupant's fate) and may allocate shared cells (the lost-update
    counter). *)

type workload_inst = {
  w_arrays : (string * int array) list;
      (** named pid-indexed progress arrays, declared as verdict arrays
          after all the monitors' state *)
  w_body : probes -> pid:int -> epoch:int -> unit;
}

type workload = Memory.t -> workload_inst

type t
(** A builder scenario: [n], memory model, workload, monitor sets. *)

val v :
  n:int ->
  model:Memory.model ->
  workload:workload ->
  monitors:monitor_set list ->
  t

val to_scenario : t -> Model_check.scenario
(** The checkable scenario. {!Model_check.world} builds one instance of
    it; {!Model_check.counter}, {!Model_check.histogram} and
    {!Model_check.array} read its monitors' statistics and progress by
    name. *)

(** {2 Stock monitor sets and workloads} *)

val mutex_monitors : ?check_csr:bool -> unit -> monitor_set
(** Occupancy-based mutual exclusion plus critical-section re-entry:
    on a crash the CS occupant (if any) becomes the expected re-entrant;
    the next entry by anyone else is a CSR violation when [check_csr]
    (default true). Counters: ["me-violations"], ["csr-violations"],
    ["csr-reentries"]. *)

val lost_update_monitor : unit -> monitor_set
(** Allocates the shared ["mc.protected"] counter, increments it inside
    the CS ([in_cs] — the only monitor probe that performs {!Sim.Proc}
    operations), and checks at the end of a run that the counter equals
    the CS completions. It forgives only an increment that a
    delayed-visibility fault parked in a store buffer and a crash then
    discarded (it never reached NVRAM); a fault-free run forgives
    nothing, so every lost update counts, crashes or not. Counters:
    ["lost-updates"], ["cs-completions"], ["forgiven-updates"] and
    ["protected-counter"] (the counter's value, set by the end-of-run
    check). *)

val overtaking : unit -> monitor_set
(** FRF overtaking (Definition 4.10): for each process, the CS entries
    by others while it waits, from its first arrival in a super-passage
    (crashes do not end one) until it enters the CS. The waiting flags,
    the running counts and each process's worst count are declared
    pid-indexed verdict arrays. Counter: ["max-overtaking"], the worst count over
    every process. *)

val passage_stats : unit -> monitor_set
(** Per-passage RMR and step statistics: the ten histograms of
    [Driver.report], under its field names (["steady_rmrs"] …
    ["recovery_passage_steps"]), filled from plain [Memory.rmrs]/[steps]
    reads at the [arriving], [starting], [exiting] and [exited] probes.
    The per-process epochs are declared restore-only state and reset
    with the world; the histograms accumulate over every run of it. *)

val barrier_spec : leader_of:(epoch:int -> int) -> monitor_set
(** Definition 3.1(i): no call may return before the leader's call has
    begun in this epoch. *)

val rme_passages :
  passages:int -> make:(Memory.t -> Rme.Rme_intf.rme) -> workload
(** Each process performs [passages] recover/enter/CS/exit passages over
    the lock [make] builds; its one progress array, ["completed"], the
    per-process completed-passage count, survives crashes and feeds the
    fingerprint. *)

val rounds :
  epochs:int ->
  leader_of:(epoch:int -> int) ->
  make_enter:
    (Memory.t -> pid:int -> epoch:int -> lid:int -> leader:bool -> unit) ->
  workload
(** Barrier-style workload: at most one [make_enter] call per process
    per epoch, [epochs] rounds total; its progress array is
    ["completed"]. *)

(** {2 Stock compositions} (what {!Scenarios} re-exports) *)

val rme_lock :
  ?passages:int ->
  ?check_csr:bool ->
  n:int ->
  model:Memory.model ->
  make:(Memory.t -> Rme.Rme_intf.rme) ->
  unit ->
  t

val mutex_lock :
  ?passages:int ->
  n:int ->
  model:Memory.model ->
  make:(Memory.t -> Locks.Lock_intf.mutex) ->
  unit ->
  t

val barrier_rounds : ?epochs:int -> n:int -> model:Memory.model -> unit -> t

val barrier_sub_rounds : ?lid:int -> n:int -> model:Memory.model -> unit -> t

(** {2 Seeded storms} *)

type storm_report = {
  st_trace : int array;
      (** the full decision sequence taken — replayable via
          {!Model_check.run_schedule}, minimizable via {!Shrink} *)
  st_steps : int;
  st_crashes : int;
  st_crash_ones : int;
  st_violations : string list;
  st_deadlock : bool;
  st_capped : bool;
  st_all_done : bool;  (** neither deadlocked nor step-capped *)
  st_counters : (string * int) list;  (** all monitors' counters *)
}

val counter : storm_report -> string -> int
(** Sum of every counter with that name (0 if absent). *)

val storm :
  ?max_steps:int ->
  ?delay_window:int ->
  ?lost_wakeup_mean:int ->
  ?delay_mean:int ->
  seed:int ->
  schedule:Schedule.t ->
  t ->
  storm_report
(** One seeded storm run: decisions come from [schedule] (its [None]
    falls back to the default run-until-blocked policy), preceded by
    seeded fault injections — with probability [1/lost_wakeup_mean] per
    position a random process's pending await is suppressed, with
    probability [1/delay_mean] a random process's next write gets a
    [delay_window]-tick visibility window (defaults 0 = never). Fully
    deterministic given [seed] and the schedule's own seed.
    [max_steps] defaults to [2_000_000], matching the legacy driver
    storms. *)

(** {2 The scenario registry}

    One shared name table for every consumer — [rme_cli scenario
    list/describe/run], [rme_cli model-check --scenario], and bench
    rosters — so a newly registered scenario appears everywhere at
    once. *)

type params = {
  sp_stack : string;  (** registry lock-stack name (when applicable) *)
  sp_n : int;
  sp_model : Memory.model;
  sp_passages : int;
  sp_check_csr : bool;
  sp_crash_bound : int;
      (** the exploration's crash budget; the barrier scenario derives
          [epochs = crash_bound + 1] from it *)
}

val default_params : params
(** [{ sp_stack = "t3-mcs"; sp_n = 3; sp_model = Cc; sp_passages = 1;
      sp_check_csr = true; sp_crash_bound = 0 }] — override fields with
    [{ default_params with ... }]. *)

type info = { i_name : string; i_summary : string; i_needs_stack : bool }

val register :
  name:string -> summary:string -> needs_stack:bool -> (params -> t) -> unit
(** @raise Invalid_argument on a duplicate name. *)

val find : string -> (params -> t) option
(** The builder: {!storm} it, or search it through {!to_scenario}. *)

val info : string -> info option
val names : unit -> string list
(** Registration order. Stock entries: ["rme"], ["mutex"], ["barrier"],
    ["barrier-sub"]. *)

val infos : unit -> info list
