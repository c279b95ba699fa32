(** Simulated shared memory with remote-memory-reference (RMR) accounting.

    Implements the two cost models from Section 2 of the paper:

    - {b CC (cache-coherent)}: every shared-memory operation is an RMR
      {e except} an in-cache read — a read by process [p] of a variable [v]
      that [p] has already read in an earlier step, where no process has
      accessed [v] except by a read operation since that earlier step. Note
      the definition is deliberately conservative: a write by [p] itself
      also invalidates [p]'s own cached copy.
    - {b DSM (distributed shared memory)}: every shared variable is local to
      exactly one process, fixed at initialization; an operation is an RMR
      iff the accessing process is not the variable's home process.

    Cells hold plain [int] values; see {!Encode} for packing structured
    values. All read-modify-write primitives return the {e old} value, the
    convention the paper's pseudo-code uses (e.g. Fig. 1 line 10 compares
    the result of CAS against [epoch]). *)

type model = Cc | Dsm

val pp_model : Format.formatter -> model -> unit
val model_of_string : string -> model

type cell
(** A shared-memory cell (a register or a single-word RMW object). *)

type t
(** A shared-memory instance: a set of cells plus per-process RMR and step
    counters. *)

val create : model:model -> n:int -> t
(** [create ~model ~n] makes an empty memory for processes [1..n]. *)

val model : t -> model
val n : t -> int

val cell : t -> name:string -> ?i:int -> ?j:int -> home:int -> int -> cell
(** [cell t ~name ?i ?j ~home init] allocates a cell. [home] is the DSM
    home process in [1..n]; it is ignored by the CC cost model but must
    always be valid (the DSM model requires every variable to be local to
    exactly one process). The diagnostic name is the prefix [name] plus
    up to two non-negative indices ([?j] only alongside [?i]); it is
    stored unformatted, so allocation builds no string (see {!name}).
    @raise Invalid_argument on a bad home or index. *)

val global : t -> name:string -> ?i:int -> ?j:int -> int -> cell
(** [global t ~name ?i ?j init] is [cell t ~name ?i ?j ~home:1 init]: a
    variable with no natural owner, statically homed at process 1 as the
    DSM model requires. *)

val name : cell -> string
(** The cell's diagnostic name, formatted on demand: the prefix alone,
    ["prefix[i]"] or ["prefix[i][j]"] (e.g. ["t1(mcs).bar.tags.E[2][0]"]).
    Names carry no semantics — only traces, deadlock diagnostics and
    tests call this. *)

val home : cell -> int

val id : cell -> int
(** Dense allocation index of a cell, starting at 0. Allocation order is
    deterministic for a given scenario, so ids — and therefore
    {!snapshot} layouts and {!fingerprint}s — are comparable across
    independent replays of the same scenario. *)

val cell_count : t -> int

val iter_cells : t -> (cell -> unit) -> unit
(** [iter_cells t f] applies [f] to every allocated cell in id order.
    Observer API — no step or RMR is charged. *)

val snapshot : t -> int array
(** [snapshot t] is the current value of every allocated cell, indexed by
    {!id}. Computed dirty-set style: a maintained copy of the previous
    snapshot is patched with only the cells written since (DESIGN.md
    §5.14), so the cost is O(dirty cells + copy-out) rather than a full
    re-walk. No step or RMR is charged (observer API, like {!peek}). *)

val fingerprint : t -> int
(** A deterministic hash of the full value vector: each cell contributes
    {!Encode.zobrist}[ (id c) (peek c)], XOR-combined into a running
    digest that every write updates in O(1) — so this call is a field
    read, not a fold (DESIGN.md §5.14). Maintenance is enabled lazily by
    the first call (an O(cells) resync); until then writes pay nothing,
    which is what lets the model checker fast-forward replay prefixes
    and run [--reduce none] digest-free. Equal fingerprints mean equal
    {!snapshot}s up to hash collisions. CC reader sets are excluded:
    cache residency affects RMR accounting, never values or control
    flow. Observer API — no step or RMR is charged. *)

val sym_part : t -> int -> int
(** [sym_part t k] is the symmetry-slice digest of owner [k] (DESIGN.md
    §5.19): for [k >= 1], the xor over cells allocated with [~home:k]
    through {!cell} of a {e pid-independent} Zobrist contribution (keyed
    by the cell's per-owner allocation slot, so the k-th cell of every
    pid shares a key); [sym_part t 0] is the residue — every {!global},
    keyed by identity. Two states related by a process-id permutation π
    have equal residues and [sym_part i = sym_part (π i)] pointwise,
    which is what lets the model checker's [--reduce sym] sort the
    per-pid digests into a canonical orbit representative. Like
    {!fingerprint}, maintenance is enabled lazily by the first call (an
    O(cells) resync); until then writes pay one dead branch. A cell
    allocated through {!cell} with a home that is not "the pid this cell
    belongs to under relabeling" merely pins that pid's slice (fewer
    merges, never a false merge beyond ordinary hash collisions).
    Observer API — no step or RMR is charged. *)

val fingerprint_slow : t -> int
(** From-scratch recomputation of {!fingerprint} over all live cells —
    O(cells), and it neither reads nor enables the incremental digest.
    The two must always agree; [test/test_fingerprint.ml] cross-checks
    them after randomized op storms. *)

val peek : cell -> int
(** [peek c] reads a cell's value {e without} counting a step or an RMR.
    For monitors, property checkers and tests only — never for simulated
    algorithm code. *)

val poke : t -> cell -> int -> unit
(** [poke t c v] sets a cell's value without accounting, invalidating all
    cached copies. Takes the owning memory so the incremental
    {!fingerprint} digest and the {!snapshot} dirty set stay coherent.
    For test setup only. *)

(** {2 In-place reuse}

    The model checker builds one memory per search and resets it before
    every run instead of rebuilding the stack (DESIGN.md §5.14). *)

val reset : t -> unit
(** [reset t] returns [t] to its state after construction: every cell
    gets back its value at allocation, CC reader sets are cleared, the
    RMR and step counters are zeroed and both digests ({!fingerprint},
    {!sym_part}) are switched off, to resync lazily at their next call
    as on a fresh memory. Every cell is marked for the next {!snapshot}.
    Then the callbacks registered with {!on_reset} run, in registration
    order. The first call seals the memory: any later {!cell}, {!global}
    or {!on_reset} call raises [Invalid_argument]. The tracer is kept. *)

val on_reset : t -> (unit -> unit) -> unit
(** [on_reset t f] registers [f] to run at every {!reset} of [t]. Any
    OCaml state built over a memory that a run can change — monitor
    refs, progress arrays, a lock's private arrays — must register one
    such callback that puts it back to its value at construction, or a
    reused memory starts the next run from the last run's state.
    @raise Invalid_argument once [t] is sealed. *)

(** One shared-memory operation. RMW operations return the old value. *)
type op =
  | Read of cell
  | Write of cell * int
  | Cas of cell * int * int  (** [Cas (c, expect, repl)] *)
  | Fas of cell * int  (** fetch-and-store (swap) *)
  | Faa of cell * int  (** fetch-and-add *)
  | Fasas of cell * int * cell
      (** [Fasas (c, v, dst)]: fetch-and-store-and-store, the specialized
          {e double-word} primitive of Ramaraju 2015 / Golab & Hendler
          2017 — atomically [old := c; c := v; dst := old], returning
          [old]. Not used by this paper's algorithms (their point is to
          avoid it); provided so the comparison class — O(1)-RMR RME under
          {e independent} failures — can be reproduced ({!Rme.Fasas_clh},
          experiment E11). Charged as one step that performs non-read
          accesses to both cells. *)

val op_name : op -> string
val op_cell : op -> cell

val footprint : op -> (int * bool) list
(** [(cell id, may_write)] for every cell the operation touches (one
    entry, except FASAS's two). A CAS is a write even if it would fail:
    its outcome depends on the cell value and it invalidates cached
    copies, so it never commutes with another access to the same cell.
    Used by the model checker's partial-order reduction. *)

val apply : t -> pid:int -> op -> int * bool
(** [apply t ~pid op] executes [op] on behalf of process [pid], updates the
    step and RMR counters, and returns [(result, was_rmr)]. A failed CAS
    still counts as a non-read access (it traverses the interconnect and
    invalidates cached copies). Dispatches to the [exec_*] fast paths
    below; use those directly on hot paths that do not need the RMR
    flag. *)

(** {2 Per-operation fast paths}

    One entry point per operation, returning the bare result [int] — no
    [op] box, no result tuple — with identical semantics, accounting and
    tracing to routing the corresponding {!op} through {!apply} (the
    tracer callback, when installed, still receives a freshly built
    {!op}). These are the {!Runtime} scheduler's per-step interface;
    the mutate-then-charge order is part of the pinned golden-trace
    behaviour. *)

val exec_read : t -> pid:int -> cell -> int

val exec_write : t -> pid:int -> cell -> int -> int
(** Returns the value written, as [apply (Write _)] does. *)

val exec_cas : t -> pid:int -> cell -> expect:int -> repl:int -> int

val exec_fas : t -> pid:int -> cell -> int -> int

val exec_faa : t -> pid:int -> cell -> int -> int

val exec_fasas : t -> pid:int -> cell -> int -> dst:cell -> int

type tracer = pid:int -> op -> result:int -> rmr:bool -> unit

val set_tracer : t -> tracer option -> unit
(** Install (or remove) a callback invoked after every operation — used by
    {!Trace}. At most one tracer is active per memory. *)

val rmrs : t -> pid:int -> int
(** Total RMRs charged to [pid] so far. *)

val steps : t -> pid:int -> int
(** Total shared-memory operations executed by [pid] so far. *)

val total_rmrs : t -> int
