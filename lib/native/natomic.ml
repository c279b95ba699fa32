(* RMW primitives over OCaml 5 [Atomic] in the paper's old-value-returning
   convention, plus the cache-line-padded allocator the backend uses to
   keep one cell per line. *)

let rec cas a ~expect ~repl =
  let cur = Atomic.get a in
  if cur = expect then
    if Atomic.compare_and_set a expect repl then expect else cas a ~expect ~repl
  else cur

let cas_success a ~expect ~repl = Atomic.compare_and_set a expect repl

let fas a v = Atomic.exchange a v

let faa a d = Atomic.fetch_and_add a d

(* Allocate an atomic padded onto its own cache line. Bare [Atomic.make]
   blocks are two words (16 B on 64-bit): a lock's cells allocated
   back-to-back share 64 B lines, and every CAS/FAA then invalidates its
   neighbours' lines too — classic false sharing, measured by E14's
   ablation. The C stub (rme_stubs.c) allocates a one-line block in the
   major heap, as OCaml 5.2's [Atomic.make_contended] does. *)
external make_padded : int -> int Atomic.t = "rme_make_padded"
