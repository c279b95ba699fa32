(** The native run kernel under {!Workers} and the service load harness:
    n worker domains under the stop-the-world crash protocol, plus what
    every native measurement needs around a harness's own loop.
    - Spawn n domains; [~pin:true] pins worker [pid] to core
      [(pid-1) mod cores], best-effort, counting the pins that landed.
    - A start barrier, always armed: no body starts before all n workers
      are live.
    - {!Crash.worker_run} / {!Crash.worker_done} for each pid.
    - The [run_for] window and worker 1's allocation probe, in {!loop}.
    - The caller's controller on the main domain once every worker is
      live; without one the main domain blocks in [Domain.join].
    - [elapsed] from the moment all workers were live to the last join. *)

type t

val running : t -> bool
(** Some worker has not finished its body yet. *)

val live : t -> int
(** Workers that have reached the start barrier. *)

val loop : t -> pid:int -> progress:(unit -> int) -> (unit -> unit) -> unit
(** [loop t ~pid ~progress step] runs [step ()] while [progress ()], the
    worker's completed work, is below the budget and the window is open,
    polling the crash flag before every step. On worker 1 of a probing
    run it reads minor words when progress first reaches the warmup mark
    (a fifth of the budget) and when the loop ends. May raise
    {!Crash.Crashed}; allocates nothing itself. *)

type outcome = {
  elapsed : float;  (** seconds *)
  pinned : int;
  alloc_words_per_op : float option;
      (** worker 1's minor words per unit of progress between the warmup
          mark and the end of its loop; [None] unless armed and the mark
          was reached. Meaningful on failure-free runs. *)
}

val run :
  ?pin:bool ->
  ?run_for:float ->
  ?alloc_probe:bool ->
  ?controller:(t -> unit) ->
  crash:Crash.t ->
  n:int ->
  budget:int ->
  (t -> pid:int -> epoch:int -> unit) ->
  outcome
(** [run ~crash ~n ~budget body] applies [body t ~pid] on each worker
    domain after the barrier (per-worker set-up goes there) and hands the
    resulting [epoch:int -> unit] to {!Crash.worker_run}. [budget] is each
    worker's budget as {!loop} counts it; [run_for] (seconds) closes the
    window early. *)
