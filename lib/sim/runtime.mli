(** The simulation runtime: N process fibers over one shared memory.

    Each process is an effects fiber running [body ~pid ~epoch]. The runtime
    advances one process at a time ({!step} executes exactly one
    shared-memory operation) and implements the paper's {e crash step}
    ({!crash}): all fibers are destroyed, shared memory survives, and every
    process restarts at the top of [body] — i.e. in the NCS — with a larger
    epoch number. Private state is lost by construction because the fiber's
    closure restarts from scratch.

    The epoch number models the environment-supplied failure information of
    Section 2: it increases monotonically after each crash (strictly, though
    not necessarily by 1), and all passages between two crashes observe the
    same value. *)

type t

val create :
  ?initial_epoch:int ->
  Memory.t ->
  body:(pid:int -> epoch:int -> unit) ->
  t
(** [create mem ~body] sets up fibers for processes [1..Memory.n mem], all
    initially in the NCS (not yet started). [initial_epoch] defaults to [1],
    so the first passage of each process exercises the first-boot recovery
    path (shared cells are initialized to epoch-0 values). *)

val memory : t -> Memory.t
val n : t -> int

val epoch : t -> int
(** The current epoch number. *)

val clock : t -> int
(** Total steps taken so far (ordinary steps + crash steps). *)

val crashes : t -> int

val runnable : t -> int -> bool
(** [runnable t pid] is true iff [pid] has not returned from [body] in the
    current epoch. *)

val blocked : t -> int -> bool
(** [blocked t pid] is true iff [pid] is suspended at a {!Proc.await} (or
    {!Proc.await2}) whose condition does not hold for the current memory
    contents. Stepping a blocked process re-reads the cell (charging a step
    and possibly an RMR, as spinning does) but cannot change any shared
    value, so schedulers and the model checker may skip blocked processes
    without losing reachable states. *)

val blocked_on : t -> int -> string option
(** Name(s) of the cell(s) a blocked process is spinning on, for deadlock
    diagnostics. *)

val enabled : t -> int list
(** Process IDs that can take a step, in increasing order. *)

val all_done : t -> bool

val step : t -> int -> unit
(** [step t pid] runs [pid] for one ordinary step: execute its pending
    shared-memory operation (starting the body first if needed) and let it
    run to its next operation or to completion.
    @raise Invalid_argument if [pid] is not runnable. *)

val crash : t -> ?bump:int -> unit -> unit
(** [crash t ()] performs a system-wide crash step. [bump] (default 1, must
    be >= 1) is how much the epoch number advances — the model only
    guarantees monotonicity, so schedules may skip epochs. *)

val crash_one : t -> int -> unit
(** [crash_one t pid] crashes a {e single} process: its fiber is destroyed
    and it restarts at the NCS with its private state lost, but the epoch
    number does {e not} change and no other process is affected. This is
    the {e independent-failure} model of Golab & Ramaraju 2016 — strictly
    harder than the paper's system-wide model, and NOT the model this
    paper's algorithms are designed for. It exists to demonstrate the
    separation (experiment E11): Transformation 1's recovery never fires
    (the epoch is unchanged, so [C = epoch] still holds) and the restarted
    process re-enters a base lock whose queue may still reference its dead
    enlistment. No crash hooks run. *)

val on_crash : t -> (epoch:int -> unit) -> unit
(** Register a callback invoked during each crash step, after the fibers
    are destroyed and the epoch advanced. Monitors use this to reset
    volatile bookkeeping. *)

val reset : t -> unit
(** [reset t] returns [t] to its state at {!create} for in-place reuse
    (DESIGN.md §5.14): every process back in the NCS with an empty
    signature, the epoch at [initial_epoch], clock and crash count at 0,
    the digest off (to resync lazily at the next {!fingerprint}) and no
    armed fault. Suspended fibers are dropped. Crash hooks are kept. The
    memory is not touched: reset it with {!Memory.reset}. *)

(** {2 Injectable faults}

    Two fault classes beyond the paper's crash steps, armed explicitly by
    failure schedules ({!Harness.Scenario}); fault-free runs keep the
    machinery unallocated and every hot path byte-identical.

    {b Lost wakeup} ({!lose_wakeup}): a process suspended at an await is
    marked suppressed — it stays {!blocked} even when its predicate
    holds, modelling a missed futex-style wakeup. The suppression clears
    when any watched cell's {e value changes} from the one recorded at
    arming time (a fresh write is a fresh wakeup), when the process is
    explicitly stepped (a spurious wakeup: the await re-checks its
    predicate), or when the process crashes.

    {b Delayed visibility} ({!delay_writes}): the process's next plain
    write is parked in a one-slot store buffer for [window] clock ticks
    instead of reaching shared memory. The writer proceeds as if it
    wrote; other processes cannot observe the value until the buffer
    flushes (at the first {!step} once the window elapses). The owner's
    own next shared-memory operation drains the buffer first (fence
    semantics — no process observes memory ahead of its own write). A
    crash — system-wide or {!crash_one} of the owner — {e discards} the
    buffered write: it never reached persistent memory. *)

val lose_wakeup : t -> int -> bool
(** [lose_wakeup t pid] suppresses [pid]'s pending await, if it is
    suspended at one; returns whether a suppression was armed. *)

val delay_writes : t -> int -> window:int -> unit
(** [delay_writes t pid ~window] arms [pid]'s next plain write to be held
    in its store buffer for [window] clock ticks ([window >= 1]). Only
    plain writes divert; read-modify-write operations stay atomic. *)

val drain_faults : t -> bool
(** Flush every held store buffer immediately (regardless of deadline)
    and clear every still-active await suppression (a spurious wakeup);
    returns whether anything changed. Scheduler loops call this before
    declaring deadlock — a system wedged only behind a buffered write or
    a lost wakeup is a visibility stall, not a deadlock: every await in
    this codebase is a poll loop, so a lost wakeup can delay a process
    but never kill it. *)

val awaiting : t -> int -> bool
(** [awaiting t pid] is true iff [pid] is suspended at an await (whether
    or not its condition holds) — i.e. {!lose_wakeup} would arm. *)

val fingerprint : t -> int
(** A deterministic hash of the runtime's control state: the epoch plus,
    per process, its slot kind (fresh / suspended / finished) and its
    {e local signature} — a hash of the values the fiber has consumed
    since it last (re)started. Process bodies are deterministic functions
    of [(pid, epoch, consumed values)], so across replays of the same
    scenario, equal [fingerprint]s plus equal {!Memory.fingerprint}s
    identify states with identical futures (up to hash collisions).
    Effects continuations themselves are opaque; the consumed-value
    signature is the canonical encoding that replaces them. Crash steps
    reset the signatures along with the fibers.

    Maintained incrementally: each process contributes
    {!Encode.zobrist}-style into an XOR digest that {!step},
    {!crash_one} and {!crash} update in O(1), so this call is a field
    read. Like {!Memory.fingerprint}, maintenance is enabled lazily by
    the first call (an O(n) resync) — runs that never fingerprint pay
    nothing (DESIGN.md §5.14). Observer API: computing it takes no step
    and charges no RMR. *)

val fingerprint_slow : t -> int
(** From-scratch O(n) recomputation of {!fingerprint}; neither reads nor
    enables the incremental digest. Always equal to {!fingerprint} —
    cross-checked by [test/test_fingerprint.ml]. *)

val sym_contribution : t -> int -> int
(** [sym_contribution t pid] is [pid]'s {e pid-independent} control-state
    digest: the same (slot kind, consumed-value signature) payload that
    feeds {!fingerprint}, but keyed by {!Encode.sym_seed} rather than a
    per-pid Zobrist key — two processes at the same control point with
    the same consumed-value history contribute equally regardless of id.
    The model checker's symmetry quotient ([--reduce sym], DESIGN.md
    §5.19) bundles it with {!Memory.sym_part} per pid and sorts the
    bundles into a canonical orbit representative. Note the epoch is NOT
    included (it is permutation-invariant; the caller mixes it into the
    residue). Computed on demand; observer API. *)

val step_footprint : t -> int -> (int * bool) list option
(** The shared-memory accesses [(cell id, may_write)] that [step t pid]
    would perform right now: the suspended operation's footprint, or the
    spin re-read(s) of an await. [None] for a fresh process (starting the
    body executes arbitrary setup plus its first operation — unknown
    without running it), so callers must treat fresh processes as
    touching everything. Used by the model checker's partial-order
    reduction to decide whether two processes' next steps commute. *)
