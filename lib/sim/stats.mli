(** Online summary statistics (count / mean / max / min) plus a
    log-bucketed histogram with percentile queries — the measurement core
    of the observability layer. Samples are expected to be non-negative
    (RMR counts, step counts); the histogram clamps anything below 1 into
    its zero bucket, while mean/min/max track the exact inputs (NaN is
    treated as 0 throughout, so it can never wedge min/max at their
    internal sentinels).

    Empty accumulators never leak their internal [±infinity] sentinels:
    {!max}, {!min}, {!percentile} and {!pp} all report 0 when no sample
    was added, and {!to_json} therefore always emits valid JSON. *)

type t

val create : unit -> t
val add : t -> float -> unit
val add_int : t -> int -> unit
val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val max : t -> float
(** 0 when empty. *)

val min : t -> float
(** 0 when empty. *)

val max_int : t -> int
(** Max rounded to int; 0 when empty. *)

val percentile : t -> float -> float
(** [percentile t p] for [p] in [0..100] (clamped): the upper bound of the
    log-spaced bucket containing the rank-⌈p/100·n⌉ sample, clamped into
    the observed [min..max] range — so [percentile t 100. = max t] exactly,
    and any percentile is within 12.5% of the true order statistic.
    0 when empty. *)

val merge : t -> t -> t
(** Sums counts, sums and histograms; exact min/max of the two. *)

val to_json : t -> Json.t
(** Summary + percentiles + the non-empty histogram buckets as
    [[lo, hi, count]] triples (inclusive value ranges). All numbers are
    finite. *)

val json_schema : Json.Schema.t
(** The shape {!to_json} emits, for the artifact schemas that embed a
    histogram. *)

val pp : Format.formatter -> t -> unit
