(** Atomic helpers for the native ports. The paper's pseudo-code uses a
    CAS that returns the {e old} value; OCaml's [Atomic.compare_and_set]
    returns a boolean, so [cas] reconstructs the old-value convention with
    a linearizable retry loop (the returned value is the cell's value at
    the linearization point: the successful CAS, or the [Atomic.get] that
    observed a non-matching value). *)

val cas : int Atomic.t -> expect:int -> repl:int -> int
(** Old-value compare-and-swap. The swap happened iff the result equals
    [expect]. *)

val cas_success : int Atomic.t -> expect:int -> repl:int -> bool

val fas : int Atomic.t -> int -> int
(** Fetch-and-store ([Atomic.exchange]). *)

val faa : int Atomic.t -> int -> int
(** Fetch-and-add. *)

val make_padded : int -> int Atomic.t
(** Allocate an atomic alone on its cache line, so neighbouring cells
    stop false-sharing (bare [Atomic.make] blocks are 16 B; four share a
    64 B line, and every RMW then invalidates the neighbours too). The
    cell is one 64-byte block (the atomic's field and six unit fields)
    allocated straight into the major heap, whose size-class pools keep
    any two such blocks at least a line apart (DESIGN.md §5.15). The
    same on every OCaml 5.x. *)
