(** Slot-indexed online safety monitors shared by the native harnesses:
    {!Workers} watches one slot, the service table one per shard. Per
    slot, an occupancy counter (two holders is a mutual-exclusion
    violation, judged independently of the lock) and a deliberately
    plain counter beside an atomic completion count (a mismatch is a
    lost update). Per pid, the slot it holds, so a crash handler can
    release an abandoned critical section. Without violations, [enter],
    [serve] and [exit] each do one atomic read-modify-write; none
    allocates. *)

type t

val create : n:int -> slots:int -> t
(** Monitors for pids [1..n] over slots [0..slots-1]. *)

val enter : t -> pid:int -> slot:int -> unit
(** Count the occupant and record the slot as held by [pid]; call right
    after the lock's enter. *)

val serve : t -> slot:int -> unit
(** One unit of critical-section work. *)

val exit : t -> pid:int -> slot:int -> unit
(** Release; call before the lock's exit, which may crash-unwind. *)

val abandon : t -> pid:int -> int
(** Post-crash: release the slot [pid] died holding and return it, or
    return [-1] if it held none. *)

val me_violations : t -> int
val counter : t -> slot:int -> int
val completions : t -> int array
val total_completions : t -> int

val lost_update_slots : t -> int
(** Slots whose plain counter disagrees with their completion count. *)
