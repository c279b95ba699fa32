(** Bounded systematic concurrency testing (stateless, CHESS-style).

    Effects continuations are one-shot, so exploration is by {e replay}:
    each explored schedule re-executes the scenario from its initial state.
    A run branched off a parent at position [cut] first re-executes the
    parent's decisions before [cut] straight, with no scan, choice point
    or visited-set lookup (the parent already checked and branched them),
    each run of equal consecutive steps as one {!Sim.Runtime.step_n}; the
    checked loop starts at [cut], where it takes the run's alternative
    decision whatever the state (so a crash branched off a deadlock runs).
    A run whose divergence budget is spent records no choice points (its
    only children are crashes at its free positions) and, without a
    visited set, steps each default segment as one
    {!Sim.Runtime.step_productive}.
    The search walks a tree of decision sequences. The default schedule
    runs the current process until it spin-blocks (see {!Sim.Runtime.blocked})
    or finishes, then rotates to the next productive process — fair, and
    terminating for livelock-free algorithms. At every position the search
    also branches to

    - any other {e productive} process, while the {e divergence budget}
      lasts (a CHESS-style preemption bound; stepping a spin-blocked
      process only re-reads a cell and cannot change shared state, so
      skipping blocked processes loses no reachable states), and
    - a system-wide crash step, while the {e crash budget} lasts.

    A state in which every runnable process is spin-blocked is reported as
    a deadlock immediately (only a crash could ever unblock it), and the
    search branches the crashes the budgets allow from it.

    With small process counts this systematically covers every schedule
    within the bounds — including a crash at {e every} reachable step when
    [crash_bound >= 1] — which is the evidence we offer in place of the
    paper's omitted proofs (experiment E9).

    {2 State-space reduction}

    The raw search re-executes every interleaving even when different
    decision orders converge on the same state. [~reduction] prunes that
    redundancy without changing verdicts (DESIGN.md §5.13):

    - {!Dedup}: after each decision the run's state is fingerprinted
      ({!Sim.Memory.fingerprint} over cell values, {!Sim.Runtime.fingerprint}
      over epoch + per-process consumed-value signatures, plus the
      scenario's declared monitor state ({!declared}) and the
      scheduler's current-process id) and looked up in a visited set
      shared across the whole exploration ({!Parallel.Vset}). A run that
      re-reaches a state already explored with component-wise
      equal-or-more {e remaining} budget is truncated there — the earlier
      visit's subtree contains everything this continuation could reach.
      The per-process signature hashes the {e sequence} of consumed
      values, so two runs merge exactly when every process consumed the
      same values in its own order — commuting interleavings, which is
      where the schedule explosion lives.
    - {!Por}: [Dedup] plus conservative partial-order reduction. At a
      choice point, the preemption branch to process [q] is skipped when
      [q]'s and the default process's pending operations touch disjoint
      cells or only read a common one ({!Sim.Runtime.conflict} is false): the two orders commute, so the [q] branch is deferred
      step-by-step to the first conflicting position (reached within the
      same default run at no extra divergence cost). Crash branches and
      fresh processes (unknown footprint) are never pruned.
    - {!Sym}: [Por] plus two further layers (DESIGN.md §5.19). {e
      Symmetry quotient}: states are fingerprinted by a
      {e canonical-orbit} digest — per-process (control point,
      consumed-value signature, memory slice, monitor slice) bundles
      hashed pid-independently ({!Sim.Memory.sym_part},
      {!Sim.Runtime.sym_contribution}) and {e sorted}, mixed with a
      permutation-invariant residue (globals, epoch, cell count) and the
      canonical rank of the last-stepped process — so two states related
      by a process-id permutation merge in the visited set. {e Sleep
      sets}: on top of POR's commutation test, each work item carries the
      set of processes whose pending transition an earlier sibling
      already explored from the same choice point; they are excluded
      from defaults and branching until a dependent (footprint-
      conflicting) step wakes them, crashes and fresh-start steps waking
      everyone. Sleeping branches are suppressed entirely
      ([sleep_pruned]); a run whose every productive process sleeps
      truncates like a visited state.

    Soundness caveats, documented in DESIGN.md §5.13 and §5.19: a
    fingerprint collision (64-bit mixed hash) could suppress exploration
    of a genuinely new state — it can never fabricate a violation — and
    runs truncated by [max_steps] lose the deferred branches beyond the
    cap (capped runs already report a violation, so the signal survives).
    Scenario monitors that keep verdict-relevant state outside shared
    memory {e must} declare it ({!declared}); otherwise two states the
    monitor distinguishes could be merged. Under {!Sym} declared verdict
    refs fold into the permutation-invariant residue — a pid-valued ref
    then pins the permutation (fewer merges, never a lost violation) —
    and element [pid] of each declared verdict array into that process's
    bundle. {!Sym} composes with the preemption
    budget: a state's orbit representative may first be reached down a
    schedule whose remaining budget differs, so [sym] may {e explore
    less} of the quotient than [por] explores of the full space — it is
    an opt-in accelerator; [por] remains the verdict-authoritative
    reduction level, and E17 pins verdict parity empirically across the
    E9/E12 roster. Crash state stays inside the orbit computation: the
    epoch is in the residue and each process's restart status is in its
    bundle, so a crashed-and-restarted process only ever merges with
    another restarted process. *)

(** How aggressively to prune the schedule tree. [No_reduction] is the
    legacy exhaustive enumeration, byte-identical to pre-reduction
    behaviour. Levels are cumulative: [Sym] includes [Por] includes
    [Dedup]. *)
type reduction = No_reduction | Dedup | Por | Sym

val reduction_of_string : string -> reduction
(** Parses ["none" | "dedup" | "por" | "sym"] (case-insensitive).
    @raise Invalid_argument otherwise. *)

val reduction_to_string : reduction -> string

val pp_reduction : Format.formatter -> reduction -> unit

(** Visited-set representation for the reduction levels that keep one
    ({!Dedup} and up). {!Exact} (default) is the sharded hash map —
    verdict-authoritative, grows with the state count. [Bitstate] is a
    fixed-memory double-hashed bit array (Holzmann supertrace,
    {!Parallel.Vset.create_bitstate}): [2^bits] bits allocated up front,
    never grown — for searches whose exact set no longer fits. A hash
    collision in bitstate {e prunes} exploration (same failure direction
    as an exact-mode fingerprint collision, just more probable); it can
    never fabricate a state or a violation, and the measured occupancy
    and collision-probability bound are reported in the outcome so the
    coverage loss is always visible next to the verdict. [salt]
    diversifies the probe-bit mapping so swarm members miss {e
    different} states. Bitstate stores no per-key coverage mask, so the
    engine folds the consumed-budget vector into the key itself
    (key-mix coding — sound, fewer merges). *)
type vset_mode = Exact | Bitstate of { bits : int; salt : int }

type outcome = {
  runs : int;  (** schedules executed (pruned replays included) *)
  steps : int;  (** total simulated steps across all runs *)
  violations : string list;  (** distinct violation descriptions (capped) *)
  step_cap_hits : int;
      (** runs that exceeded [max_steps] — livelock suspects, since the
          default continuation is fair *)
  deadlocks : int;
      (** runs that reached a state where every runnable process was
          spin-blocked *)
  truncated : bool;  (** true if [max_runs] stopped the search early *)
  distinct_states : int;
      (** distinct state fingerprints recorded (0 with [No_reduction]) *)
  pruned_runs : int;
      (** runs truncated at a state an earlier run had already covered *)
  pruned_branches : int;
      (** preemption branches skipped by partial-order reduction ([Por]
          and up) *)
  sleep_pruned : int;
      (** preemption branches suppressed by sleep sets ([Sym] only) *)
  bitstate_occupancy : float option;
      (** fraction of bits set in the bitstate array ([None] in exact
          mode) *)
  collision_bound : float option;
      (** estimated probability that the next fresh state is wrongly
          reported covered, ≈ occupancy² ([None] in exact mode) *)
  witness : int array option;
      (** the decision sequence of the first violating run in DFS
          order, replayable via {!run_schedule} (and minimizable via
          {!Shrink.minimize}) *)
}

(** Monitor state declared as data: plain OCaml state outside shared
    memory, named for the readers ({!counter}, {!histogram}, {!array};
    names never reach a fingerprint). The {!world} derives from it the
    monitor part of both state keys, one restore at every reset (each
    ref, counter and array goes back to its value when [build]
    returned), the crash hooks and the finish checks. *)
type declared = {
  d_refs : (string * int ref) list;
      (** verdict refs: in every state key, and {!Sym}'s residue —
          undeclared, [--reduce] could merge two monitor-distinct states
          and prune a violation away (DESIGN.md §5.13) *)
  d_arrays : (string * int array) list;
      (** pid-indexed verdict arrays of length [n+1]: in every state
          key; under {!Sym} element [0] in the residue, element [pid]
          in that process's bundle *)
  d_counters : (string * int ref) list;  (** never fingerprinted *)
  d_histograms : (string * Sim.Stats.t) list;
      (** never fingerprinted nor restored: they accumulate over runs *)
  d_restore_refs : (string * int ref) list;
      (** restore-only: no verdict, but every run starts from its built
          value (DESIGN.md §5.14) *)
  d_restore_arrays : (string * int array) list;
  d_crash : (epoch:int -> unit) option;  (** at each system-wide crash *)
  d_crash_one : (pid:int -> unit) option;  (** at each independent crash *)
  d_finish : (unit -> unit) option;  (** see {!finish} *)
}

val nothing : declared
(** Declares nothing: the base for [{ nothing with ... }] literals. *)

(** A checkable scenario: [build] makes the per-process program over a
    fresh memory, reporting violations through [violation], and returns
    it with the declarations of its monitor state, in order. The run is
    terminal when every process body has returned and no crash
    re-enables work. *)
type scenario = {
  n : int;
  model : Sim.Memory.model;
  build :
    Sim.Memory.t ->
    violation:(string -> unit) ->
    (pid:int -> epoch:int -> unit) * declared list;
}

val monitor_fingerprint : declared list -> int
(** The monitor part of the {!Dedup}/{!Por} key, over the declarations'
    current values: {!Sim.Encode.mix_refs} from
    {!Sim.Encode.fingerprint_seed} over every verdict ref, then
    {!Sim.Encode.mix_array} over every verdict array, each in
    declaration order. *)

val explore :
  ?divergence_bound:int ->
  ?crash_bound:int ->
  ?crash_one_bound:int ->
  ?max_steps:int ->
  ?max_runs:int ->
  ?stop_on_first:bool ->
  ?reduction:reduction ->
  ?vset_mode:vset_mode ->
  ?jobs:int ->
  ?eager_fingerprints:bool ->
  scenario ->
  outcome
(** Defaults: [divergence_bound = 1], [crash_bound = 0],
    [crash_one_bound = 0] (budget of {e independent} single-process
    crashes branched at every position, every victim — for checking
    algorithms that claim recovery from individual failures, like
    {!Rme.Fasas_clh}), [max_steps = 20_000] per run,
    [max_runs = 200_000], [stop_on_first = false] (when true, the search
    stops at the first recorded violation — useful for exhibiting a known
    bug cheaply), [reduction = No_reduction] (the legacy exhaustive
    enumeration; see the module preamble for [Dedup]/[Por]/[Sym]),
    [vset_mode = Exact] (see {!vset_mode} for the fixed-memory bitstate
    alternative; ignored under [No_reduction], which keeps no visited
    set). [jobs] is ignored: the search runs sequentially on the
    calling domain. It builds one {!world} and resets it in place
    before every run.

    The search is deterministic: the same arguments give the same
    outcome, counts and witness included, at every [reduction] level
    and [vset_mode]. Parallelism lives one level up — independent
    searches fan out with {!Parallel.Pool.map} (experiment sweeps,
    [model-check --swarm] members).

    [eager_fingerprints] (default false; testing only) forces the
    incremental memory/runtime digests on from step 0 of every replay,
    through the shared prefix, instead of letting them switch on lazily
    at the first covered-check past it. The outcome must be identical either way —
    [test/test_fingerprint.ml] pins this; there is no reason to set it
    in production code.

    Caveat: the run-until-blocked default cannot cope with algorithms that
    busy-wait through raw retry loops instead of {!Sim.Proc.await} (e.g.
    the test-and-set lock's CAS loop) — those runs hit the step cap, with
    or without reduction (the history-qualified fingerprint keeps evolving
    around a livelock cycle, so the visited set does not short-circuit
    it). All algorithms in this repository except [Locks.Tas] declare
    their spins. *)

val pp_outcome : Format.formatter -> outcome -> unit

(** {2 Decisions and forced-schedule replay}

    The search encodes decisions as plain ints: [pid > 0] steps that
    process, [0] is a system-wide crash, [-pid] an independent crash.
    Forced schedules extend the negative range with the injectable
    faults of {!Sim.Runtime}: [-(n+pid)] is a lost wakeup of [pid]'s
    pending await, [-(2n+pid)] arms a delayed-visibility window on
    [pid]'s next write. The fault codes are scenario-relative (they
    depend on [n]); {!explore} never branches over them — faults enter
    runs only through explicit schedules ({!Scenario}'s storms, or a
    replayed trace). *)

type decision =
  | Step of int
  | Crash
  | Crash_one of int
  | Lose_wakeup of int
  | Delay_writes of int

val crash_decision : int
(** The integer code of {!Crash} ([0]). *)

val decision_of_int : n:int -> int -> decision
(** @raise Invalid_argument when the code is out of range for [n]. *)

val int_of_decision : n:int -> decision -> int

val describe_decision : n:int -> int -> string
(** Human-readable form of one decision code, e.g. ["step p2"],
    ["crash"], ["lose-wakeup p3"]. *)

(** What one forced replay did. *)
type replay_report = {
  rp_steps : int;  (** decisions executed (fault armings included) *)
  rp_trace : int array;  (** the decision sequence actually taken *)
  rp_interventions : (int * int) list;
      (** [(pos, decision)] where the taken decision differed from the
          default — the schedule's information content: replaying just
          these over the default policy reproduces [rp_trace] *)
  rp_violations : string list;  (** in occurrence order *)
  rp_first_violation_pos : int option;
      (** trace position at which the first violation was recorded
          (= [rp_steps] for finish-hook violations) *)
  rp_deadlock : bool;
  rp_capped : bool;
  rp_crashes : int;
  rp_crash_ones : int;
}

val run_schedule :
  ?max_steps:int ->
  ?delay_window:int ->
  decide:(pos:int -> enabled:Sim.Bitset.t -> default:int -> int) ->
  scenario ->
  replay_report
(** [run_schedule ~decide scenario] executes one run of [scenario] where
    every decision comes from [decide ~pos ~enabled ~default] —
    [enabled] being the runnable processes (spin-blocked included, as
    {!Sim.Schedule} schedulers expect; the runtime's read-only
    {!Sim.Runtime.runnable_set}, valid only during the call) and
    [default] the same
    run-until-blocked policy {!explore} uses, so
    [decide = fun ~pos:_ ~enabled:_ ~default -> default] is exactly the
    default schedule. Decisions the current state cannot honour (stepping a
    finished process, suppressing a process not at an await, a fault
    code out of range) degrade to the default step, keeping replays
    total and deterministic — the property counterexample shrinking
    relies on when removing an early intervention invalidates a later
    one. Unlike {!explore} there are no budgets and no visited set, so
    nothing is fingerprinted.

    Deadlock detection first drains any held store buffers
    ({!Sim.Runtime.drain_faults}): a system wedged only behind a
    delayed write is a visibility stall, not a deadlock. The finish
    checks likewise run after a drain, so they never read memory
    behind a write still parked when the last process finished.

    [max_steps] defaults to [20_000] (same cap and same "step cap
    exceeded" violation as {!explore}); [delay_window] (default [8]) is
    the visibility window, in clock ticks, that a [Delay_writes]
    decision arms. Each call builds a fresh {!world}, runs
    [run_schedule_in ~decide] on it and resets the world's runtime,
    discontinuing its suspended fibers. *)

(** {2 The simulated world}

    A {!world} is one built instance of a scenario: its memory, the
    stack and monitors [build] made over it, the runtime, and what it
    derives from the declarations. {!explore} builds one per call and
    resets it in place before every run instead of rebuilding it
    (DESIGN.md §5.14); {!Shrink} holds one across its probe replays.
    Reuse is sound only if every piece of OCaml state built over the
    memory is put back at a reset: the world restores everything
    declared, and state outside the declarations (a lock's private
    arrays) registers its own {!Sim.Memory.on_reset}. A world is mutable
    and belongs to one domain: build one per search, never share one. *)

type world

val world : scenario -> world
(** Builds the memory, calls [build] once, registers the one restore of
    the declared state and creates the runtime with the declared crash
    hooks, which run in declaration order. *)

val reset : world -> violation:(string -> unit) -> unit
(** Resets the runtime ({!Sim.Runtime.reset}) and the memory
    ({!Sim.Memory.reset}, which runs the restores), then points the
    builder's [violation] at [violation] for the coming run. Runs
    through {!run_schedule_in} and {!explore} call it themselves. *)

val memory : world -> Sim.Memory.t
val runtime : world -> Sim.Runtime.t

val finish : world -> unit
(** Runs every declared [d_finish] check, in declaration order.
    {!run_schedule_in} and {!explore} call it at the end of every run
    that was not step-capped; a caller that steps the world's runtime
    itself ({!Sim.Runtime.run}) calls it once its run is over. *)

(** Name-based readers: the first declaration of that name (a verdict
    array live, not a copy). @raise Invalid_argument if there is none. *)

val counter : world -> string -> int
val histogram : world -> string -> Sim.Stats.t
val array : world -> string -> int array

val counters : world -> (string * int) list
(** Every declared counter with its value, in declaration order. *)

val state_fingerprint : world -> cur:int -> int
(** The state key {!Dedup} and {!Por} store: memory and runtime digests,
    the {!monitor_fingerprint} of the declared state, and [cur], the
    last-stepped process. *)

val sym_fingerprint : world -> cur:int -> int
(** The canonical-orbit key {!Sym} stores (DESIGN.md §5.19). *)

val run_schedule_in :
  ?max_steps:int ->
  ?delay_window:int ->
  decide:(pos:int -> enabled:Sim.Bitset.t -> default:int -> int) ->
  world ->
  replay_report
(** {!run_schedule} on an existing world, reset first. The world's
    memory and runtime then hold the run's final state until the next
    reset. A caller done with the world resets its runtime
    ({!Sim.Runtime.reset}) so that no suspended fiber is dropped. *)
