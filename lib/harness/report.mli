(** Plain-text table rendering for the benchmark harness (aligned columns,
    Markdown-ish separators), so every experiment prints rows the way the
    paper's claims read — plus an in-memory capture of every table
    printed and every metric and gate recorded since the last
    {!reset_captured}, so the harness can additionally emit
    machine-readable [BENCH_E<k>.json] files (schema {!bench}). *)

type captured = { title : string; header : string list; rows : string list list }

val table :
  ?capture:bool -> title:string -> header:string list -> string list list -> unit
(** Print a titled, column-aligned table to stdout (and record it for
    {!captured}). [~capture:false] prints without recording — for
    machine-dependent columns (absolute throughputs, ratios) that belong
    in the run log but must stay out of the baseline-gated JSON; gate on
    such numbers with {!gate} and record them via {!metric} instead. *)

val ablation_table :
  title:string ->
  label_header:string ->
  base_header:string ->
  variant_header:string ->
  fmt:(float -> string) ->
  (string * float * float) list ->
  unit
(** Side-by-side ablation: one row per [(label, base, variant)] with a
    trailing variant/base ratio column, never captured (the cells are
    machine-dependent by nature; see {!table}). *)

val render : header:string list -> string list list -> string list
(** The rendered lines of a table (header, rule, rows) without printing —
    columns are aligned by {!display_width}, not byte length. *)

val display_width : string -> int
(** Unicode scalar count of a UTF-8 string — what a monospace terminal
    renders for the symbols our tables use (e.g. ["Θ(log N)"] is 8, not
    its 9 bytes). *)

val metric : name:string -> Sim.Json.t -> unit
(** Record one named metric (e.g. a {!Sim.Stats.to_json} histogram) for
    the current experiment's JSON file. *)

(** {2 Gates} A gate is one claim as data: labelled observations, an
    aggregate and a bound (DESIGN.md §5.12). *)

type bound = At_least of float | At_most of float

type agg = Max | Median | All
(** [Median] is the row at index [len/2] of the sorted rows; a yes/no
    check is an [All] gate over 0/1 rows with [At_least 1.]. *)

type verdict = {
  name : string;
  threshold : string;  (** derived, e.g. ["max >= 1.2"] *)
  agg : agg;
  observed : float;  (** the worst deciding row's value *)
  pass : bool;  (** false for a gate with no rows *)
  deciding : (string * float) list;
      (** [Max]: the argmax row; [Median]: the median row; [All]: every
          failing row, or the row closest to the bound when all pass *)
}

val gate : name:string -> ?agg:agg -> bound -> (string * float) list -> unit
(** Record a gate (default [All]) over [(row label, value)] pairs. *)

val judge_gate :
  name:string -> ?agg:agg -> bound -> (string * float) list -> verdict
(** The verdict {!run_gates} gives such a gate, without recording it. *)

val run_gates : title:string -> unit -> verdict list
(** Judge the gates recorded since {!reset_captured}, in record order;
    if there are any, print and capture a [gate | threshold | verdict]
    table titled [title]. *)

val gates_json : verdict list -> Sim.Json.t
(** The [gates] member of {!bench}. *)

val reset_captured : unit -> unit
(** Forget previously captured tables, metrics and gates (call before
    each experiment). *)

val captured : unit -> captured list
(** Tables printed since the last {!reset_captured}, in print order. *)

val captured_metrics : unit -> (string * Sim.Json.t) list
(** Metrics recorded since the last {!reset_captured}, in record order. *)

val number_of_cell : string -> float option
(** Numeric value of a table cell, accepting the harness's ["12345+"]
    truncation marker; [None] for non-numeric cells. *)

val cell_within_tolerance : tolerance:float -> base:float -> fresh:float -> bool
(** The baseline gate's numeric-cell agreement: relative to the larger
    magnitude (floored at 1) for nonzero baselines, absolute — within
    [tolerance] of 0 — when the baseline is exactly 0, where a relative
    rule degenerates into rejecting every nonzero fresh value.
    [bench/validate.exe] applies this to every non-safety numeric cell;
    [test/test_observability.ml] pins the semantics. *)

val bench : Sim.Json.Schema.doc
(** ["rme-bench/1"], the shape of every [BENCH_E<k>.json]: the
    experiment name, [jobs] (an int >= 1), [wall_clock_s] (>= 0), every
    captured table with string cells, a metrics object, and a [gates]
    array of {!verdict}s ([observed] and row values are [Null] when not
    finite; [verdict] is ["pass"] or ["fail"]). *)

val mc_outcome : Sim.Json.Schema.doc
(** ["rme-mc-outcome/1"], the shape of every [model-check --out] /
    [scenario run --out] JSON: a config object, integer outcome
    counters, string violations, an optional integer [witness] array,
    and a [minimized_schedule] that is either [Null] or carries the
    minimized decision trace, its [(pos, decision, meaning)]
    interventions and the shrinking statistics (DESIGN.md §5.16). The
    §5.19 members are optional (older files stay valid): an integer
    [sleep_pruned], finite [bitstate_occupancy]/[collision_bound], and a
    top-level [swarm] array whose members each carry their varied
    bounds, bitstate salt and a full outcome object. *)
