(** Sharded concurrent visited set for state-space search.

    A hash map from state fingerprints to a small {e coverage bitmask},
    built for the model checker's reduction engine ({!Harness.Model_check}
    with [~reduction]): every run of one search shares its instance, so
    a state first reached by any run prunes every later run that
    re-reaches it. Swarm members each own a set. The key space splits
    across a fixed four shards, each an open-addressing (linear-probe)
    table behind its own mutex, so the set is safe to share between
    domains, and the hot path allocates nothing.

    The per-key bitmask exists because the search is {e budget-bounded}:
    reaching a state with more remaining divergence/crash budget can
    explore more than an earlier visit with less, so "visited" must be
    qualified by budget. The caller encodes its (clamped) consumed-budget
    vector as a bit index and passes the {e domination closure} — the set
    of vectors with component-wise equal-or-more consumption, whose
    subtrees are all covered by exploring from the present one. A later
    arrival is prunable iff its own vector bit is already stored.

    A second, fixed-memory representation — {!create_bitstate}, a
    double-hashed bit array in the tradition of SPIN's supertrace — backs
    searches whose exact set no longer fits in memory. See the
    constructor for its (deliberately weaker) contract. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** [create ()] makes an empty {e exact} set.

    [initial_capacity] (default 0) is a sizing {e hint}: the expected
    total number of keys. Shards are pre-sized so that many insertions
    trigger no incremental rehash — the model checker passes the
    previous search's [distinct_states] to avoid rehash storms on
    repeated explorations. Purely an allocation strategy; never affects
    results. *)

val create_bitstate : ?salt:int -> bits:int -> unit -> t
(** [create_bitstate ~bits ()] makes a {e bitstate} set: a fixed
    [2^bits]-bit array ([bits] in 10..36, so 128 B–8 GiB) in which each
    key sets/tests two probe bits derived from independent hash rounds.
    A key is covered iff both its bits were already set — so the set can
    report a never-seen state as covered (probability ≈ occupancy², see
    {!stats}), which prunes exploration exactly like a fingerprint
    collision would, but can never resurrect or fabricate a state:
    bitstate coverage only ever {e under}-reports the distinct-state
    count and the explored tree. Memory is bounded up front and never
    grows.

    Caveats vs. exact mode: [covers_or_add]'s [~bit]/[~closure] are
    {b ignored} (there is no per-key mask) — callers with budget
    structure must fold the budget vector into the key itself (the model
    checker switches to its key-mix coding under bitstate);
    {!cardinal} counts first-seen keys, a lower bound on distinct keys.

    [salt] (default 0 = unsalted) diversifies the probe-bit mapping so
    swarm members miss {e different} states; the mapping depends only on
    [bits] and [salt]. *)

val is_bitstate : t -> bool

val covers_or_add : t -> int -> bit:int -> closure:int -> bool
(** [covers_or_add t key ~bit ~closure] returns [true] if [key]'s stored
    mask already contains [bit] (the caller's state+budget is covered —
    prune). Otherwise it ORs [closure] into the mask (inserting [key]
    with mask [closure] if absent) and returns [false] (first visit at
    this budget — keep exploring). Check and update are atomic per key.
    Callers without budget structure pass [~bit:1 ~closure:1], which
    degrades to a plain visited set. On a bitstate set, [bit] and
    [closure] are ignored — see {!create_bitstate}. *)

val mem : t -> int -> bool
(** Membership regardless of mask (for tests and diagnostics). On a
    bitstate set: both probe bits set, so subject to the same
    false-positive probability as [covers_or_add]. *)

val cardinal : t -> int
(** Number of distinct keys. Per-shard counts are read under the shard
    locks, so concurrent [covers_or_add] calls may or may not be
    included; exact once writers are quiescent. On a bitstate set this
    is the number of first-seen keys — a {e lower bound} on the distinct
    keys offered (false-covered keys are not counted). *)

val stats : t -> (float * float) option
(** [None] for exact sets. For bitstate sets,
    [Some (occupancy, collision_bound)]: the fraction of bits set, and
    the resulting estimate of the probability that the {e next} fresh
    state is wrongly reported covered (≈ occupancy²). Read under the
    shard locks; exact once writers are quiescent. The model checker
    prints both into its [rme-mc-outcome/1] JSON so a bitstate search's
    coverage loss is always visible next to its verdict. *)
