(* Tests for the domain pool, the visited set, and the determinism
   contract of fanned-out model checking: a search run on a pool worker,
   next to another search, must return the exact same outcome as on the
   calling domain — including under [max_runs] truncation and
   [stop_on_first] cuts — and running a pool must not perturb an
   unrelated simulation (the golden-trace property). *)

open Sim
open Testutil
module Pool = Parallel.Pool
module MC = Harness.Model_check

(* --- pool --- *)

let map_preserves_order () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let xs = List.init 100 Fun.id in
          let ys = Pool.map pool (fun x -> (x * 7) + 1) xs in
          Alcotest.(check (list int))
            (Printf.sprintf "jobs=%d" jobs)
            (List.map (fun x -> (x * 7) + 1) xs)
            ys))
    [ 1; 2; 4 ]

exception Boom of int

let map_propagates_exceptions () =
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          match
            Pool.map pool
              (fun x -> if x mod 3 = 2 then raise (Boom x) else x)
              (List.init 10 Fun.id)
          with
          | _ -> Alcotest.failf "jobs=%d: expected an exception" jobs
          | exception Boom x ->
            (* the first failure in submission order *)
            Alcotest.(check int) (Printf.sprintf "jobs=%d" jobs) 2 x))
    [ 1; 2; 4 ]

let shutdown_is_idempotent () =
  let pool = Pool.create ~jobs:3 in
  let f = Pool.async pool (fun () -> 41 + 1) in
  Alcotest.(check int) "result" 42 (Pool.await f);
  Pool.shutdown pool;
  Pool.shutdown pool

(* --- visited set (the reduction engine's state) --- *)

module Vset = Parallel.Vset

let vset_first_visit_then_covered () =
  let vs = Vset.create () in
  Alcotest.(check bool)
    "first visit" false
    (Vset.covers_or_add vs 42 ~bit:1 ~closure:1);
  Alcotest.(check bool)
    "second visit covered" true
    (Vset.covers_or_add vs 42 ~bit:1 ~closure:1);
  Alcotest.(check bool) "mem" true (Vset.mem vs 42);
  Alcotest.(check bool) "absent key" false (Vset.mem vs 43);
  Alcotest.(check int) "cardinal" 1 (Vset.cardinal vs)

(* The budget-dominance contract: an arrival is covered iff its own bit
   is already in the stored mask; a miss ORs in the whole closure, so a
   later arrival at a dominated budget is covered without its own
   insert. *)
let vset_closure_covers_dominated_budgets () =
  let vs = Vset.create () in
  (* Visit at budget bit 0 whose domination closure is {0,1,2}. *)
  Alcotest.(check bool)
    "rich visit" false
    (Vset.covers_or_add vs 7 ~bit:0b001 ~closure:0b111);
  (* A dominated arrival (bit 2 in the closure) is pruned... *)
  Alcotest.(check bool)
    "dominated covered" true
    (Vset.covers_or_add vs 7 ~bit:0b100 ~closure:0b100);
  (* ... and a bit outside the closure is a fresh visit that widens it. *)
  Alcotest.(check bool)
    "uncovered bit" false
    (Vset.covers_or_add vs 7 ~bit:0b1000 ~closure:0b1000);
  Alcotest.(check bool)
    "now covered" true
    (Vset.covers_or_add vs 7 ~bit:0b1000 ~closure:0b1000);
  Alcotest.(check int) "one key" 1 (Vset.cardinal vs)

let vset_growth_keeps_all_keys () =
  let vs = Vset.create () in
  (* Push well past the 64-slot initial capacity to force regrowth,
     including the normalized key 0. *)
  for k = 0 to 999 do
    Alcotest.(check bool)
      (Printf.sprintf "first add %d" k)
      false
      (Vset.covers_or_add vs k ~bit:1 ~closure:1)
  done;
  for k = 0 to 999 do
    Alcotest.(check bool)
      (Printf.sprintf "still present %d" k)
      true
      (Vset.covers_or_add vs k ~bit:1 ~closure:1)
  done;
  Alcotest.(check int) "cardinal" 1000 (Vset.cardinal vs)

(* Exactly one domain wins the first visit of each key, however the
   insertions race. *)
let vset_concurrent_first_visit_unique () =
  let vs = Vset.create () in
  let keys = 2_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let wins = ref 0 in
            for k = 1 to keys do
              if not (Vset.covers_or_add vs k ~bit:1 ~closure:1) then
                incr wins
            done;
            !wins))
  in
  let total = List.fold_left (fun acc d -> acc + Domain.join d) 0 domains in
  Alcotest.(check int) "each key won exactly once" keys total;
  Alcotest.(check int) "cardinal" keys (Vset.cardinal vs)

(* --- bitstate adversarial tests (DESIGN.md §5.19) ---

   The supertrace contract: a bitstate set may report a never-inserted
   key as covered (a probe-bit collision — the under-report direction:
   exploration is pruned as if the state were known), but it must never
   "lose" an inserted key, never count a collision as an insert, and
   never report covered a key whose probe bits are not both set. *)

let bitstate_mode_flags () =
  Alcotest.(check bool) "exact" false (Vset.is_bitstate (Vset.create ()));
  Alcotest.(check bool)
    "bitstate" true
    (Vset.is_bitstate (Vset.create_bitstate ~bits:10 ()));
  Alcotest.(check_raises) "bits too small"
    (Invalid_argument "Vset.create_bitstate: bits must be in 10..36")
    (fun () -> ignore (Vset.create_bitstate ~bits:9 ()));
  Alcotest.(check_raises) "bits too large"
    (Invalid_argument "Vset.create_bitstate: bits must be in 10..36")
    (fun () -> ignore (Vset.create_bitstate ~bits:37 ()))

(* Force a collision: fill a deliberately tiny (2^10-bit) array to ~18%
   occupancy, then search for a never-inserted key whose two probe bits
   happen to both be set already ([mem] is read-only, so probing does
   not pollute the array). That key must be reported covered — and must
   NOT be counted: the cardinal under-reports, never inflates. *)
let bitstate_forced_collision_underreports () =
  let vs = Vset.create_bitstate ~bits:10 () in
  let inserted = 100 in
  for k = 1 to inserted do
    Alcotest.(check bool)
      (Printf.sprintf "fresh %d" k)
      false
      (Vset.covers_or_add vs k ~bit:1 ~closure:1)
  done;
  let j = ref 0 in
  let k = ref (inserted + 1) in
  while !j = 0 && !k < 1_000_000 do
    if Vset.mem vs !k then j := !k;
    incr k
  done;
  Alcotest.(check bool) "collision key found" true (!j > 0);
  Alcotest.(check bool)
    "collision reported covered (prunes, never fabricates)" true
    (Vset.covers_or_add vs !j ~bit:1 ~closure:1);
  Alcotest.(check int)
    "collision not counted as an insert" inserted (Vset.cardinal vs);
  (* Salting remaps the probe bits: the same insertion set under some
     other salt must not collide on the same key (all ten salts
     colliding would be a ~2^-200 accident — this is deterministic
     given the fixed remix constants). *)
  let salted_misses =
    List.exists
      (fun salt ->
        let vs' = Vset.create_bitstate ~bits:10 ~salt () in
        for k = 1 to inserted do
          ignore (Vset.covers_or_add vs' k ~bit:1 ~closure:1)
        done;
        not (Vset.mem vs' !j))
      [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
  in
  Alcotest.(check bool) "some salt dodges the collision" true salted_misses

(* Bits, once set, never clear: every inserted key stays covered forever,
   whatever [~bit]/[~closure] later queries pass (both are ignored in
   bitstate mode — there is no per-key mask). *)
let bitstate_never_forgets () =
  let vs = Vset.create_bitstate ~bits:14 () in
  for k = 1 to 2_000 do
    ignore (Vset.covers_or_add vs k ~bit:1 ~closure:1)
  done;
  for k = 1 to 2_000 do
    Alcotest.(check bool)
      (Printf.sprintf "covered ever after %d" k)
      true
      (Vset.covers_or_add vs k ~bit:8 ~closure:64);
    Alcotest.(check bool) (Printf.sprintf "mem %d" k) true (Vset.mem vs k)
  done

(* Saturate a tiny array far past capacity: memory never grows, the
   cardinal stays a lower bound on the keys offered, and the reported
   occupancy/collision bound converge toward 1 (full array) while
   remaining finite and well-ordered. *)
let bitstate_high_occupancy_stats () =
  let vs = Vset.create_bitstate ~bits:10 () in
  let offered = 5_000 in
  for k = 1 to offered do
    ignore (Vset.covers_or_add vs k ~bit:1 ~closure:1)
  done;
  Alcotest.(check bool)
    "cardinal is a lower bound" true
    (Vset.cardinal vs <= offered);
  match Vset.stats vs with
  | None -> Alcotest.fail "bitstate stats missing"
  | Some (occ, bound) ->
    Alcotest.(check bool)
      "occupancy in (0.9, 1]" true
      (Float.is_finite occ && occ > 0.9 && occ <= 1.0);
    Alcotest.(check bool)
      "collision bound = occupancy^2, finite" true
      (Float.is_finite bound && Float.abs (bound -. (occ *. occ)) < 1e-12);
    Alcotest.(check (option (pair (float 0.) (float 0.))))
      "exact sets report no stats" None
      (Vset.stats (Vset.create ()))

(* The visited set's geometry is part of what a search computes: a
   bitstate set's probe mapping depends on its shard split, so a silent
   change to the split or the probe derivation would change which states
   a bitstate search prunes (E17's baseline compares its bitstate row
   only within a 10% band). Pin the exact answers for a seeded key stream
   with repeats: how many offers came back covered, a digest of the
   positions that did, the cardinal and the bitstate occupancy. *)
let key_stream ~seed ~len ~distinct =
  let s = ref seed in
  Array.init len (fun _ ->
      s := !s lxor (!s lsl 13);
      s := !s lxor (!s lsr 7);
      s := !s lxor (!s lsl 17);
      1 + (((!s lsr 20) land max_int) mod distinct))

let vset_geometry_pinned () =
  let keys = key_stream ~seed:0x5EED ~len:6_000 ~distinct:2_500 in
  let check name vs ~covered ~digest ~cardinal ~set_bits =
    let c = ref 0 and d = ref 0 in
    Array.iteri
      (fun i k ->
        if Vset.covers_or_add vs k ~bit:1 ~closure:1 then begin
          incr c;
          d := ((!d * 31) + i) land 0x3FFFFFFF
        end)
      keys;
    Alcotest.(check int) (name ^ ": covered answers") covered !c;
    Alcotest.(check int) (name ^ ": covered positions digest") digest !d;
    Alcotest.(check int) (name ^ ": cardinal") cardinal (Vset.cardinal vs);
    let stats =
      Option.map
        (fun bits ->
          let occ = float_of_int bits /. float_of_int (1 lsl 14) in
          (occ, occ *. occ))
        set_bits
    in
    Alcotest.(check (option (pair (float 0.) (float 0.))))
      (name ^ ": stats") stats (Vset.stats vs)
  in
  check "exact" (Vset.create ()) ~covered:3745 ~digest:605573391
    ~cardinal:2255 ~set_bits:None;
  check "bitstate 2^14 salt 0"
    (Vset.create_bitstate ~bits:14 ())
    ~covered:3789 ~digest:730915735 ~cardinal:2211 ~set_bits:(Some 3963);
  check "bitstate 2^14 salt 3"
    (Vset.create_bitstate ~bits:14 ~salt:3 ())
    ~covered:3791 ~digest:568520846 ~cardinal:2209 ~set_bits:(Some 3985)

(* --- explore determinism --- *)

let rme ?(check_csr = true) stack n model =
  Harness.Scenarios.rme ~check_csr ~n ~model
    ~make:(fun mem -> Rme.Stack.recoverable mem stack)
    ()

(* The E9 scenario roster (smaller [max_runs] where exhaustive search is
   slow, so the truncation path is exercised rather than avoided). *)
let scenarios =
  [
    ( "barrier-n3-cc-d2",
      fun () ->
        MC.explore ~divergence_bound:2
          (Harness.Scenarios.barrier ~n:3 ~model:Memory.Cc ()) );
    ( "barrier-n3-dsm-d2",
      fun () ->
        MC.explore ~divergence_bound:2
          (Harness.Scenarios.barrier ~n:3 ~model:Memory.Dsm ()) );
    ( "barrier-n2-dsm-3epochs-d1c2",
      fun () ->
        MC.explore ~divergence_bound:1 ~crash_bound:2 ~max_runs:4_000
          (Harness.Scenarios.barrier ~epochs:3 ~n:2 ~model:Memory.Dsm ()) );
    ( "barrier-sub-n3-dsm-d2",
      fun () ->
        MC.explore ~divergence_bound:2
          (Harness.Scenarios.barrier_sub ~n:3 ~model:Memory.Dsm ()) );
    ( "t1-mcs-me-n3-d2c1",
      fun () ->
        MC.explore ~divergence_bound:2 ~crash_bound:1 ~max_runs:3_000
          (rme ~check_csr:false "t1-mcs" 3 Memory.Cc) );
    ( "t1-mcs-csr-stop-on-first",
      fun () ->
        MC.explore ~divergence_bound:2 ~crash_bound:1 ~stop_on_first:true
          (rme "t1-mcs" 2 Memory.Cc) );
    ( "t2-mcs-n2-dsm-d1c2",
      fun () ->
        MC.explore ~divergence_bound:1 ~crash_bound:2 ~max_runs:4_000
          (rme "t2-mcs" 2 Memory.Dsm) );
    ( "t3-mcs-n3-cc-d1c1",
      fun () ->
        MC.explore ~divergence_bound:1 ~crash_bound:1 ~max_runs:3_000
          (rme "t3-mcs" 3 Memory.Cc) );
    ( "t3-mcs-literal-stop-on-first",
      fun () ->
        MC.explore ~divergence_bound:2 ~stop_on_first:true
          (rme "t3-mcs-literal" 3 Memory.Cc) );
    ( "fasas-clh-n2-co2",
      fun () ->
        MC.explore ~divergence_bound:1 ~crash_one_bound:2
          ~max_runs:4_000 (rme "rclh-fasas" 2 Memory.Cc) );
    ( "t1-mcs-n2-co1-stop-on-first",
      fun () ->
        MC.explore ~divergence_bound:0 ~crash_one_bound:1
          ~stop_on_first:true (rme ~check_csr:false "t1-mcs" 2 Memory.Cc) );
  ]

let check_outcome name (expected : MC.outcome) (got : MC.outcome) =
  Alcotest.(check int) (name ^ ": runs") expected.runs got.runs;
  Alcotest.(check int) (name ^ ": steps") expected.steps got.steps;
  Alcotest.(check (list string))
    (name ^ ": violations")
    expected.violations got.violations;
  Alcotest.(check int)
    (name ^ ": cap hits")
    expected.step_cap_hits got.step_cap_hits;
  Alcotest.(check int) (name ^ ": deadlocks") expected.deadlocks got.deadlocks;
  Alcotest.(check bool) (name ^ ": truncated") expected.truncated got.truncated;
  Alcotest.(check (option (array int)))
    (name ^ ": witness") expected.witness got.witness

(* Searches fan out over the pool (E9's rows, E12/E17's cells, swarm
   members): a search on a worker domain, running next to another copy
   of itself, must return exactly what it returns on the calling
   domain. *)
let explore_case (name, f) =
  case name (fun () ->
      let seq = f () in
      Pool.with_pool ~jobs:2 (fun pool ->
          List.iteri
            (fun i got ->
              check_outcome (Printf.sprintf "%s pooled copy %d" name i) seq got)
            (Pool.map pool f [ (); () ])))

(* Lost-wakeup regression: awaiters and idle workers park on the same
   condition variable, so [async]'s wakeup must be a broadcast. With a
   single [Condition.signal], the scenario below could hand the wakeup to
   a parked awaiter (which just re-checks its future and sleeps again)
   while the queued unblocker task — the only thing that lets [slow]
   finish — sat stranded until a completion broadcast that never comes. *)
let broadcast_reaches_idle_workers () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let release = Atomic.make false in
      let slow =
        Pool.async pool (fun () ->
            while not (Atomic.get release) do
              Domain.cpu_relax ()
            done;
            1)
      in
      Unix.sleepf 0.02 (* let a worker claim [slow] *);
      let awaiters =
        List.init 2 (fun _ -> Domain.spawn (fun () -> Pool.await slow))
      in
      Unix.sleepf 0.02 (* park the awaiters on the condvar *);
      let unblocker =
        Pool.async pool (fun () ->
            Atomic.set release true;
            2)
      in
      Alcotest.(check int) "slow finishes" 1 (Pool.await slow);
      Alcotest.(check int) "unblocker ran" 2 (Pool.await unblocker);
      List.iter
        (fun d -> Alcotest.(check int) "awaiter sees result" 1 (Domain.join d))
        awaiters)

(* Many awaiters hammering many futures from outside the pool: every
   future must resolve and every awaiter must observe the same value. *)
let many_awaiters_stress () =
  Pool.with_pool ~jobs:4 (fun pool ->
      for round = 0 to 9 do
        let futs =
          List.init 16 (fun i -> Pool.async pool (fun () -> (round * 100) + i))
        in
        let watchers =
          List.init 3 (fun _ ->
              Domain.spawn (fun () -> List.map Pool.await futs))
        in
        let expect = List.init 16 (fun i -> (round * 100) + i) in
        Alcotest.(check (list int)) "main sees all" expect
          (List.map Pool.await futs);
        List.iter
          (fun d ->
            Alcotest.(check (list int)) "watcher sees all" expect
              (Domain.join d))
          watchers
      done)

(* The pool must not perturb an unrelated seeded simulation running on the
   main domain (the property test_golden.ml pins at step granularity):
   drive the same driver run with and without busy workers and compare
   every deterministic field of the report. *)
let golden_run_unperturbed_by_pool () =
  let go () =
    run_stack ~n:4 ~passages:20 ~seed:11 ~model:Memory.Cc "t1-mcs"
  in
  let quiet = go () in
  Pool.with_pool ~jobs:4 (fun pool ->
      let busy =
        List.init 8 (fun i ->
            Pool.async pool (fun () ->
                (run_stack ~n:3 ~passages:10 ~seed:(100 + i)
                   ~model:Memory.Dsm "t3-mcs")
                  .Harness.Driver.total_steps))
      in
      let r = go () in
      Alcotest.(check int)
        "total steps" quiet.Harness.Driver.total_steps
        r.Harness.Driver.total_steps;
      Alcotest.(check int)
        "total rmrs" quiet.Harness.Driver.total_rmrs
        r.Harness.Driver.total_rmrs;
      Alcotest.(check int)
        "completions" quiet.Harness.Driver.cs_completions
        r.Harness.Driver.cs_completions;
      List.iter (fun f -> ignore (Pool.await f)) busy)

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          case "map-order" map_preserves_order;
          case "map-exceptions" map_propagates_exceptions;
          case "shutdown-idempotent" shutdown_is_idempotent;
          case "broadcast-wakes-workers" broadcast_reaches_idle_workers;
          case "many-awaiters" many_awaiters_stress;
        ] );
      ( "vset",
        [
          case "first-then-covered" vset_first_visit_then_covered;
          case "closure-dominance" vset_closure_covers_dominated_budgets;
          case "growth" vset_growth_keeps_all_keys;
          case "concurrent-unique-first" vset_concurrent_first_visit_unique;
          case "bitstate-mode-flags" bitstate_mode_flags;
          case "bitstate-forced-collision" bitstate_forced_collision_underreports;
          case "bitstate-never-forgets" bitstate_never_forgets;
          case "bitstate-high-occupancy" bitstate_high_occupancy_stats;
          case "geometry-pinned" vset_geometry_pinned;
        ] );
      ("explore-determinism", List.map explore_case scenarios);
      ("isolation", [ case "golden-unperturbed" golden_run_unperturbed_by_pool ]);
    ]
