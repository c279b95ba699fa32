(** Counterexample shrinking: delta-debugging over schedule decisions.

    A violating decision sequence — {!Model_check.explore}'s [witness]
    or a seeded storm's trace — is usually hundreds of decisions long,
    almost all of them default scheduler choices. This module reduces it
    to its {e interventions} (the positions where it deviates from the
    run-until-blocked default: preemptions, crashes, independent
    crashes, fault armings), then delta-debugs (ddmin) that set down to
    a 1-minimal subset whose forced replay still violates, finishing
    with a single-removal sweep. The result is typically a handful of
    decisions — "crash at position 12, step p3 at position 17" — that
    deterministically reproduces the bug via {!Model_check.run_schedule}.

    Every probe replays through {!Model_check.run_schedule}, whose
    sanitization degrades inapplicable decisions to the default, so
    every subset is executable and the minimization is fully
    deterministic: same scenario + same trace yields the same minimized
    schedule on any host (DESIGN.md §5.16). *)

type result = {
  s_trace : int array;
      (** the minimized full decision sequence (defaults included) —
          replaying it as a forced schedule reproduces the violation *)
  s_interventions : (int * int) list;
      (** its [(position, decision)] deviations from the default policy;
          removing any single one loses the violation (1-minimality) *)
  s_violations : string list;  (** what the minimized replay violates *)
  s_steps : int;  (** length of the minimized replay *)
  s_probes : int;  (** replays performed while shrinking *)
}

val minimize :
  ?max_steps:int ->
  ?delay_window:int ->
  Model_check.scenario ->
  int array ->
  result option
(** [minimize scenario trace] confirms [trace] reproduces a violation
    when replayed as a forced schedule, then minimizes it. [None] when
    the confirmation replay is clean (e.g. the trace came from a
    different scenario configuration). [max_steps] and [delay_window]
    must match the values used when the trace was produced. *)
