(** Packing of the paper's structured cell values into plain integers.

    Simulated shared-memory cells hold a single [int]. Two of the paper's
    shared objects need richer values:

    - the unknown-leader barrier's CAS object [C] holds either [⊥] or an
      ordered pair [⟨id, tag⟩] of a process ID and a binary tag (Fig. 2);
    - Transformation 2's [inCSpid] register holds [⊥], a process ID [i], or
      its negation [-i] (Fig. 4).

    Pairs are packed as [2*id + tag] with [id >= 1], so they can never
    collide with [bottom = 0]. Signed IDs are stored directly, with [0]
    denoting [⊥]. *)

val bottom : int
(** The packed representation of [⊥] (also used for "no process"). *)

val is_bottom : int -> bool

val pair : id:int -> tag:int -> int
(** [pair ~id ~tag] packs [⟨id, tag⟩]. Requires [id >= 1] and
    [tag] in [{0, 1}]. *)

val id_of : int -> int
(** Process ID component of a packed pair. [id_of bottom = 0]. *)

val tag_of : int -> int
(** Tag component of a packed pair. *)

val pp : Format.formatter -> int -> unit
(** Pretty-print a packed pair value (for traces and debugging). *)

(** {2 Fingerprint mixing}

    Deterministic integer hash combinators shared by the state
    fingerprints of {!Memory} and {!Runtime} and by the model checker's
    visited set. The mix is a splitmix-style avalanche over native ints:
    pure, allocation-free, and identical on every domain, so fingerprints
    computed on worker domains can be compared to ones computed on the
    main domain. A collision can only suppress an exploration branch
    (losing a little coverage), never fabricate a violation. *)

val mix : int -> int -> int
(** [mix h v] folds value [v] into accumulator [h]. Not commutative:
    callers must fold in a deterministic order. *)

val mix_array : int -> int array -> int
(** [mix_array h a] folds every element of [a] into [h], in index order. *)

val mix_refs : int -> int ref list -> int
(** [mix_refs h refs] folds the current value of every ref into [h], in
    list order: [mix_refs h [a; b]] = [mix (mix h !a) !b]. The combinator
    behind the model checker's fold of declared monitor verdict refs
    ({!Harness.Model_check.declared}), replacing per-scenario
    hand-rolled [mix (mix ...)] chains. *)

val fingerprint_seed : int
(** Canonical initial accumulator for a fingerprint fold. *)

val sym_seed : int
(** Seed for the pid-independent per-slice keys of the symmetry-quotient
    digests ({!Memory.sym_part}, {!Runtime.sym_contribution} — DESIGN.md
    §5.19). Distinct from {!fingerprint_seed} so canonical digests and
    raw Zobrist digests live in disjoint hash domains. *)

val zobrist : int -> int -> int
(** [zobrist slot v] is the Zobrist-style contribution of value [v] held
    in [slot]: [mix (mix fingerprint_seed slot) v]. XOR-combining one
    contribution per slot yields a digest that supports O(1) in-place
    updates (xor the old contribution out, the new one in) and is
    insensitive to combination order — the basis of the incremental
    {!Memory.fingerprint} and {!Runtime.fingerprint} (DESIGN.md §5.14).
    The per-slot key makes cross-slot cancellation (two slots swapping
    values) collide only if the underlying avalanche does. Hot paths
    should precompute [mix fingerprint_seed slot] per slot and fold
    values with a single {!mix}. *)
