(* The sharded lock table: up to millions of logical keys mapped onto a
   bounded number of shards, each shard backed by one native RME lock
   stack from the {!Rme_native.Stack} registry.

   Shards are materialized lazily: the table starts as an array of [None]
   slots and a shard's lock stack is built on the first passage that
   touches it (CAS-install; a losing racer drops its instance and uses
   the winner's). A million-key table therefore costs a million-entry
   option array up front, not a million lock stacks — and after the first
   touch the lookup is one atomic load and a pattern match, so
   materialization stays entirely off the steady-state passage path.

   Monitoring is one {!Rme_native.Monitor} slot per shard (occupancy,
   lost updates, the held slot), beside a per-shard last-served epoch
   that the crash-recovery drill reads to watch the recovery barrier
   drain. [Monitor.enter] records the held shard with no crash-poll point
   after the occupancy increment, so the re-entry handler's
   [abandon_held] releases the occupancy exactly when it was held. *)

module Crash = Rme_native.Crash
module Stack = Rme_native.Stack
module Intf = Rme_native.Intf
module Monitor = Rme_native.Monitor

type t = {
  crash : Crash.t;
  n : int;
  keys : int;
  shards : int;
  stack : string;
  model : Sim.Memory.model;
  padded : bool;
  locks : Intf.rme option Atomic.t array;  (* length [shards] *)
  materialized : int Atomic.t;
  monitor : Monitor.t;  (* one slot per shard *)
  served_epoch : int Atomic.t array;  (* epoch of the last completed
                                         passage; 0 = never served *)
  engaged : int array;  (* at [pid * line]: shard whose passage
                           (recover..exit) this pid is inside, -1 = none;
                           spans strictly more than the monitor's held
                           slot — see [repair_engaged] *)
}

(* Words per cache line: each pid writes its [engaged] entry twice per
   passage, so entries sit a line apart instead of false-sharing. *)
let line = 8

(* Key -> shard spread: one avalanche round of the fingerprint mix, so
   the Zipf head keys (0, 1, 2, ...) land on unrelated shards the way
   hashed keys would in a real service. Pure int ops — allocation-free
   and identical everywhere, so traffic-shape analysis and the runtime
   agree on the mapping. *)
let shard_of_key ~shards key =
  Sim.Encode.mix 0x5348 key land max_int mod shards

let create ?(model = Sim.Memory.Cc) ?(padded = true) ?(shards = 1024) ~stack
    ~keys ~crash ~n () =
  if shards < 1 then invalid_arg "Table.create: shards must be >= 1";
  if keys < 1 then invalid_arg "Table.create: keys must be >= 1";
  if n < 1 then invalid_arg "Table.create: n must be >= 1";
  (* Fail on an unknown stack now, not on the first unlucky passage. *)
  if not (List.mem stack Stack.recoverable_names) then
    invalid_arg ("Table.create: unknown recoverable stack " ^ stack);
  {
    crash;
    n;
    keys;
    shards;
    stack;
    model;
    padded;
    locks = Array.init shards (fun _ -> Atomic.make None);
    materialized = Atomic.make 0;
    monitor = Monitor.create ~n ~slots:shards;
    served_epoch = Array.init shards (fun _ -> Atomic.make 0);
    engaged = Array.make ((n + 1) * line) (-1);
  }

let shards t = t.shards
let keys t = t.keys
let stack_name t = t.stack
let crash_handle t = t.crash
let materialized t = Atomic.get t.materialized
let me_violations t = Monitor.me_violations t.monitor

let shard_of t key = shard_of_key ~shards:t.shards key

(* First touch builds the shard's lock; steady state is the [Some] arm. *)
let rec lock_of t shard =
  match Atomic.get t.locks.(shard) with
  | Some l -> l
  | None ->
    let l =
      Stack.recoverable ~model:t.model ~padded:t.padded t.crash ~n:t.n t.stack
    in
    if Atomic.compare_and_set t.locks.(shard) None (Some l) then begin
      ignore (Atomic.fetch_and_add t.materialized 1);
      l
    end
    else lock_of t shard

let acquire t ~pid ~epoch ~shard =
  (* Record the engagement before the first backend operation: from here
     until [release] returns, a crash leaves this pid's state entangled
     with this shard's lock (abandoned CS, enqueued node, stale help
     flag), and the lock's recovery barriers will block *other* pids on
     this pid re-passaging exactly this shard. [repair_engaged] reads it
     on re-entry. *)
  t.engaged.(pid * line) <- shard;
  let lock = lock_of t shard in
  lock.Intf.recover ~pid ~epoch;
  lock.Intf.enter ~pid ~epoch;
  Monitor.enter t.monitor ~pid ~slot:shard

(* One request's critical-section work; call between [acquire] and
   [release], any number of times (batching serves several requests
   under one passage). *)
let serve t ~shard = Monitor.serve t.monitor ~slot:shard

let release t ~pid ~epoch ~shard =
  Monitor.exit t.monitor ~pid ~slot:shard;
  Atomic.set t.served_epoch.(shard) epoch;
  (* The lock's own exit can crash-unwind; monitors are already clean. *)
  (match Atomic.get t.locks.(shard) with
  | Some lock -> lock.Intf.exit ~pid ~epoch
  | None -> assert false);
  t.engaged.(pid * line) <- -1

(* Post-crash: release the occupancy monitor iff this pid died holding a
   shard. Call from the worker's re-entry path before anything else. *)
let abandon_held t ~pid = ignore (Monitor.abandon t.monitor ~pid)

(* Post-crash, after [abandon_held]: one recovery passage over the shard
   this pid's crash-unwound passage was entangled with, if any. This MUST
   run before the partition [sweep] (or any other passage): a recovering
   lock parks entrants behind its barriers until the pid that abandoned
   it re-passages it — BR1 waits for the crashed-in-CS owner's exit, BR2
   for the privileged process's entry (Fig. 4 lines 78-86) — so every
   post-crash blocking edge points at a pid engaged with that same shard.
   Repairing the engaged shard first makes those pids arrive
   unconditionally; skip it and two workers sweeping each other's
   abandoned shards deadlock (the E15 drill reproduced this at n=4
   before the protocol gained this step — DESIGN.md §5.17). Idempotent:
   interrupted by another crash, the slot is still set and the repair
   reruns. Returns the passages performed (0 or 1). *)
let repair_engaged t ~pid ~epoch =
  let shard = t.engaged.(pid * line) in
  if shard < 0 then 0
  else begin
    acquire t ~pid ~epoch ~shard;
    release t ~pid ~epoch ~shard;
    1
  end

(* Recovery sweep: one full passage over every materialized shard in
   this worker's partition (shard mod n = pid - 1), so after a
   system-wide crash the n workers jointly drain the recovery barrier of
   every shard that existed at the crash. Idempotent — a sweep interrupted
   by another crash simply reruns. Returns the passages performed. *)
let sweep t ~pid ~epoch =
  let swept = ref 0 in
  let s = ref (pid - 1) in
  while !s < t.shards do
    (match Atomic.get t.locks.(!s) with
    | Some _ ->
      acquire t ~pid ~epoch ~shard:!s;
      release t ~pid ~epoch ~shard:!s;
      incr swept
    | None -> ());
    s := !s + t.n
  done;
  !swept

(* Drill observation: materialized shards whose last completed passage
   predates [epoch]. The controller snapshots this right after the epoch
   bump and spins until it reaches zero. *)
let undrained t ~epoch =
  let u = ref 0 in
  for s = 0 to t.shards - 1 do
    match Atomic.get t.locks.(s) with
    | Some _ -> if Atomic.get t.served_epoch.(s) < epoch then incr u
    | None -> ()
  done;
  !u

let completions t = Monitor.total_completions t.monitor
let shard_completions t = Monitor.completions t.monitor
let lost_update_shards t = Monitor.lost_update_slots t.monitor
