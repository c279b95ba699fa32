(** The native harness's clock (C stub in rme_stubs.c). The external is
    [@@noalloc] and returns a tagged int, so taking a timestamp itself
    produces zero GC garbage. (Recording the difference into a histogram
    still boxes a float, which is why E14 arms latency and the
    allocation probe on separate rows — DESIGN.md §5.15.) *)

external now_ns : unit -> int = "rme_monotonic_ns" [@@noalloc]
(** Monotonic wall clock, nanoseconds. *)
