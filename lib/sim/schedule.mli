(** Schedulers: who takes the next step, and when crashes happen.

    A schedule is a stateful function consulted once per step with the set
    of runnable processes. It returns [Step pid] to advance one process,
    [Crash] to perform a system-wide crash step, or [None] to stop the run.
    Deterministic given its seed, so every execution is replayable.

    The runnable set is a {e view}: the runtime's own set
    ({!Runtime.runnable_set}), passed without a copy so that learning who
    is runnable allocates nothing per step. It is read-only — a schedule
    must not [add], [remove] or [clear] it — and valid only during the
    call: the runtime changes it as processes finish and restart, so a
    schedule that needs the set later copies what it needs. Read it with
    {!Bitset.mem}, {!Bitset.cardinal}, {!Bitset.nth} and {!Bitset.next};
    members come in ascending pid order. *)

type decision =
  | Step of int
  | Crash  (** system-wide crash step (the paper's failure model) *)
  | Crash_one of int
      (** independent failure of one process (Golab-Ramaraju 2016's model;
          outside this paper's guarantees — see {!Sim.Runtime.crash_one}) *)

type t = clock:int -> enabled:Bitset.t -> decision option

val round_robin : unit -> t
(** Fair rotation over the runnable processes. *)

val uniform : seed:int -> t
(** Uniformly random runnable process each step. *)

val geometric_bias : seed:int -> float -> t
(** [geometric_bias ~seed p]: at each step, scan the runnable processes in
    increasing ID order and pick each with probability [p] (falling through
    to the last). Strongly favours low-ID processes — an adversarial-ish
    schedule useful for fairness experiments. Still fair with probability 1. *)

val of_list : decision list -> t
(** Replay an explicit decision sequence, then stop. [Step pid] decisions
    whose process is not runnable are skipped. *)

val with_crashes : every:int -> t -> t
(** [with_crashes ~every s] injects a crash decision every [every] steps
    (deterministically), otherwise defers to [s]. *)

val with_random_crashes : seed:int -> mean:int -> ?bursty:bool -> t -> t
(** Injects crashes as a Bernoulli process with mean inter-crash interval
    [mean] steps. With [bursty] (default false), each crash is followed by
    another with probability 1/2 — exercising the "failures in rapid
    succession" scenario of the paper's footnote 1. *)

val with_individual_crashes : seed:int -> mean:int -> n:int -> t -> t
(** Injects {e independent} single-process crashes (uniform victim among
    [1..n]) as a Bernoulli process with mean interval [mean] steps. Used to
    demonstrate that the paper's algorithms are specific to the
    system-wide failure model (experiment E11). *)

val stop_after : int -> t -> t
(** Stop the schedule after a total step budget. *)
