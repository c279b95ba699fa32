(* Tests for the native (Atomic/Domain) ports: atomic helpers, the
   stop-the-world crash protocol, and safety of every native stack under
   real concurrency with and without crash injection. *)

open Testutil

let module_n = 4 (* worker domains; oversubscription is fine *)

let assert_native_clean what r =
  (match Rme_native.Workers.check_clean r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e);
  if not (Array.for_all (fun c -> c >= 0) r.Rme_native.Workers.completed) then
    Alcotest.failf "%s: negative completion count" what

(* --- Natomic --- *)

let natomic_cas_old_value () =
  let a = Atomic.make 5 in
  Alcotest.(check int) "failed returns current" 5
    (Rme_native.Natomic.cas a ~expect:9 ~repl:1);
  Alcotest.(check int) "unchanged" 5 (Atomic.get a);
  Alcotest.(check int) "success returns expect" 5
    (Rme_native.Natomic.cas a ~expect:5 ~repl:7);
  Alcotest.(check int) "swapped" 7 (Atomic.get a)

let natomic_fas_faa () =
  let a = Atomic.make 3 in
  Alcotest.(check int) "fas old" 3 (Rme_native.Natomic.fas a 10);
  Alcotest.(check int) "fas new" 10 (Atomic.get a);
  Alcotest.(check int) "faa old" 10 (Rme_native.Natomic.faa a 5);
  Alcotest.(check int) "faa new" 15 (Atomic.get a)

let natomic_cas_contended () =
  (* Hammer one cell from several domains; exactly one CAS per round may
     win. *)
  let a = Atomic.make 0 in
  let wins = Atomic.make 0 in
  let rounds = 1000 in
  let worker () =
    for r = 0 to rounds - 1 do
      if Rme_native.Natomic.cas a ~expect:r ~repl:(r + 1) = r then
        ignore (Atomic.fetch_and_add wins 1)
      else
        while Atomic.get a <= r do
          Domain.cpu_relax ()
        done
    done
  in
  let ds = List.init 3 (fun _ -> Domain.spawn worker) in
  List.iter Domain.join ds;
  Alcotest.(check int) "one winner per round" rounds (Atomic.get wins);
  Alcotest.(check int) "final value" rounds (Atomic.get a)

(* --- Backoff (DESIGN.md §5.15) --- *)

let backoff_seeded_replay () =
  (* The spin-wait schedule is part of the deterministic-replay story:
     same seed, same plan sequence, byte for byte. *)
  let plans b = List.init 64 (fun _ -> Rme_native.Backoff.plan b) in
  let a = Rme_native.Backoff.create ~seed:42 () in
  let b = Rme_native.Backoff.create ~seed:42 () in
  Alcotest.(check (list int)) "same seed, same schedule" (plans a) (plans b);
  Alcotest.(check bool)
    "different seed, different schedule" true
    (plans (Rme_native.Backoff.create ~seed:42 ())
    <> plans (Rme_native.Backoff.create ~seed:43 ()))

let backoff_window_cap_and_reset () =
  let ceiling = 64 in
  let b = Rme_native.Backoff.create ~seed:7 ~ceiling () in
  Alcotest.(check bool) "fresh, not saturated" false
    (Rme_native.Backoff.saturated b);
  for _ = 1 to 32 do
    let spins = Rme_native.Backoff.plan b in
    Alcotest.(check bool) "plan within window bounds" true
      (1 <= spins && spins <= ceiling)
  done;
  Alcotest.(check bool) "window capped at ceiling" true
    (Rme_native.Backoff.saturated b);
  Rme_native.Backoff.reset b;
  Alcotest.(check bool) "reset reopens the window" false
    (Rme_native.Backoff.saturated b);
  Alcotest.(check int) "first plan after reset spins once" 1
    (Rme_native.Backoff.plan b)

let backoff_degenerate_modes () =
  List.iter
    (fun mode ->
      let b = Rme_native.Backoff.create ~mode ~seed:1 () in
      for _ = 1 to 16 do
        Alcotest.(check int)
          (Rme_native.Backoff.mode_name mode ^ " always plans one spin")
          1 (Rme_native.Backoff.plan b)
      done)
    [ Rme_native.Backoff.Relax; Rme_native.Backoff.Spin ];
  List.iter
    (fun mode ->
      Alcotest.(check bool) "mode name round-trips" true
        (Rme_native.Backoff.mode_of_name (Rme_native.Backoff.mode_name mode)
        = Some mode))
    [ Rme_native.Backoff.Exponential; Rme_native.Backoff.Relax;
      Rme_native.Backoff.Spin ];
  Alcotest.(check bool) "unknown mode name rejected" true
    (Rme_native.Backoff.mode_of_name "warp" = None)

(* --- Padding --- *)

let padded_cell_basic_ops () =
  let a = Rme_native.Natomic.make_padded 5 in
  Alcotest.(check int) "get" 5 (Atomic.get a);
  Alcotest.(check int) "cas" 5 (Rme_native.Natomic.cas a ~expect:5 ~repl:9);
  Alcotest.(check int) "fas" 9 (Rme_native.Natomic.fas a 11);
  Alcotest.(check int) "faa" 11 (Rme_native.Natomic.faa a 4);
  Alcotest.(check int) "value" 15 (Atomic.get a)

(* [k] padded cells from one backend, with a small allocation between
   consecutive cells the way a lock's constructor interleaves them with
   its records and arrays. *)
let backend_cells k =
  let crash = Rme_native.Crash.create ~n:1 () in
  let mem = Rme_native.Backend.create crash ~n:1 in
  let junk = ref [] in
  Array.init k (fun i ->
      junk := i :: !junk;
      Rme_native.Backend.cell mem ~name:"c" ~home:0 i)

(* The smallest distance in bytes between any two of [cells]. A block's
   pointer read as an int is its address halved (up to a constant), and
   no collection runs between the reads that could move a block. *)
let min_stride cells =
  let addr = Array.map (fun c -> 2 * (Obj.magic (Obj.repr c) : int)) cells in
  Array.sort compare addr;
  let gap = ref max_int in
  for i = 1 to Array.length addr - 1 do
    gap := min !gap (addr.(i) - addr.(i - 1))
  done;
  !gap

let padded_cell_stride () =
  let cells = backend_cells 64 in
  Alcotest.(check bool)
    (Printf.sprintf "fresh cells >= 64 B apart (min %d B)" (min_stride cells))
    true
    (min_stride cells >= 64);
  (* A layout made by allocation order alone does not survive promotion:
     OCaml 5's major heap sorts blocks into pools by size. *)
  Gc.full_major ();
  Alcotest.(check bool)
    (Printf.sprintf "cells >= 64 B apart after a full major (min %d B)"
       (min_stride cells))
    true
    (min_stride cells >= 64);
  for i = 0 to Array.length cells - 1 do
    Alcotest.(check int) "value survives" i (Atomic.get cells.(i))
  done

let padded_cell_footprint () =
  (* Everything a padded cell keeps alive, through the cell or through
     the backend that made it: one 8-word block at most. *)
  let crash = Rme_native.Crash.create ~n:1 () in
  let mem = Rme_native.Backend.create crash ~n:1 in
  let before = Obj.reachable_words (Obj.repr mem) in
  let k = 64 in
  let cells =
    Array.init k (fun i -> Rme_native.Backend.cell mem ~name:"c" ~home:0 i)
  in
  let grown = Obj.reachable_words (Obj.repr mem) - before in
  let held = Obj.reachable_words (Obj.repr cells) - (k + 1) in
  let per_cell = (grown + held) / k in
  Alcotest.(check bool)
    (Printf.sprintf "live words per padded cell <= 8 (%d)" per_cell)
    true (per_cell <= 8)

(* Words a t3-mcs stack keeps alive, not counting the crash handle its
   backend shares with every other stack of the run. *)
let stack_words model ~n =
  let crash = Rme_native.Crash.create ~n () in
  let l = Rme_native.Stack.recoverable ~model crash ~n "t3-mcs" in
  Obj.reachable_words (Obj.repr l) - Obj.reachable_words (Obj.repr crash)

let stack_footprint () =
  (* A CC Barrier is its one register R: the DSM election and
     BarrierSub's (n+1)x(n+1) matrices exist only under DSM, so a CC
     stack stays small and grows linearly in n. *)
  let cc2 = stack_words Sim.Memory.Cc ~n:2 in
  let cc4 = stack_words Sim.Memory.Cc ~n:4 in
  let dsm2 = stack_words Sim.Memory.Dsm ~n:2 in
  Alcotest.(check bool)
    (Printf.sprintf "CC t3-mcs n=2 <= 700 words (%d)" cc2)
    true (cc2 <= 700);
  Alcotest.(check bool)
    (Printf.sprintf "CC t3-mcs n=2 -> n=4 adds <= 100 words (%d)" (cc4 - cc2))
    true
    (cc4 - cc2 <= 100);
  Alcotest.(check bool)
    (Printf.sprintf "DSM t3-mcs n=2 >= CC + 1000 words (%d vs %d)" dsm2 cc2)
    true
    (dsm2 >= cc2 + 1000)

(* --- Pinning --- *)

let pin_noop_when_unsupported () =
  (* Negative cores are always a clean no-op; a real core-0 pin must
     succeed wherever the platform claims support. *)
  Alcotest.(check bool) "negative core refused" false
    (Rme_native.Pin.to_core (-1));
  if Rme_native.Pin.supported then
    Alcotest.(check bool) "core 0 pin lands" true
      (Domain.join (Domain.spawn (fun () -> Rme_native.Pin.to_core 0)))
  else
    Alcotest.(check bool) "unsupported: to_core is a no-op" false
      (Rme_native.Pin.to_core 0)

(* --- Run kernel --- *)

module Run = Rme_native.Run
module Monitor = Rme_native.Monitor

let kernel_barrier_and_controller () =
  (* Every body and the controller start only once all n workers are
     live; the pin count is sane; elapsed fits inside the call. *)
  let n = 3 in
  let crash = Rme_native.Crash.create ~n () in
  let early = Atomic.make 0 and bodies = Atomic.make 0 in
  let controller_saw = ref (-1) in
  let t0 = Unix.gettimeofday () in
  let o =
    Run.run ~pin:true ~crash ~n ~budget:1
      ~controller:(fun run -> controller_saw := Run.live run)
      (fun run ~pid:_ ->
        if Run.live run < n then Atomic.incr early;
        Atomic.incr bodies;
        fun ~epoch:_ -> ())
  in
  let wall = Unix.gettimeofday () -. t0 in
  Alcotest.(check int) "every body ran" n (Atomic.get bodies);
  Alcotest.(check int) "no body started before all were live" 0
    (Atomic.get early);
  Alcotest.(check int) "controller started with all live" n !controller_saw;
  Alcotest.(check bool) "elapsed within the call's wall time" true
    (0. <= o.Run.elapsed && o.Run.elapsed <= wall);
  Alcotest.(check bool) "pinned within [0, n]" true
    (0 <= o.Run.pinned && o.Run.pinned <= n);
  Alcotest.(check bool) "probe disarmed" true (o.Run.alloc_words_per_op = None)

let kernel_window_ends_unbounded_budget () =
  let n = 2 in
  let crash = Rme_native.Crash.create ~n () in
  let steps = Array.make (n + 1) 0 in
  let t0 = Unix.gettimeofday () in
  let o =
    Run.run ~run_for:0.05 ~crash ~n ~budget:max_int (fun run ~pid ->
        fun ~epoch:_ ->
          Run.loop run ~pid
            ~progress:(fun () -> steps.(pid))
            (fun () -> steps.(pid) <- steps.(pid) + 1))
  in
  let wall = Unix.gettimeofday () -. t0 in
  if wall > 5.0 then Alcotest.failf "a 0.05s window ran for %.2fs" wall;
  Alcotest.(check bool) "every worker stepped" true
    (steps.(1) > 0 && steps.(2) > 0);
  Alcotest.(check bool) "elapsed within the call's wall time" true
    (o.Run.elapsed <= wall)

let probe_under_window () =
  (* A window that closes before worker 1 reaches the warmup mark has
     measured nothing: the probe must say so rather than divide by the
     budget. With latency armed (a boxed float per passage) any reading
     it does take must show the allocation. *)
  let t1 crash ~n = Rme_native.Stack.recoverable crash ~n "t1-mcs" in
  let unbounded =
    Rme_native.Workers.run ~alloc_probe:true ~run_for:0.05 ~n:1
      ~passages:max_int ~make:t1 ()
  in
  assert_native_clean "unbounded probe run" unbounded;
  Alcotest.(check bool) "max_int budget: no reading" true
    (unbounded.Rme_native.Workers.alloc_words_per_passage = None);
  let boxed =
    Rme_native.Workers.run ~latency:true ~alloc_probe:true ~run_for:0.05 ~n:1
      ~passages:100_000_000 ~make:t1 ()
  in
  assert_native_clean "latency probe run" boxed;
  match boxed.Rme_native.Workers.alloc_words_per_passage with
  | None -> ()
  | Some w when w >= 1.0 -> ()
  | Some w -> Alcotest.failf "allocating path read %.4f words/passage" w

(* --- Monitor --- *)

let monitor_counts_violations () =
  let m = Monitor.create ~n:2 ~slots:2 in
  Monitor.enter m ~pid:1 ~slot:0;
  Monitor.enter m ~pid:2 ~slot:0;
  Alcotest.(check int) "two holders, one violation" 1
    (Monitor.me_violations m);
  (* Lost updates: two domains race the plain counter of slot 0 while
     slot 1 is served alone. The racers go in lockstep rounds: a helper
     domain arrives and spins; the main domain waits for it, checks for a
     lost update while neither is serving (so the check reads settled
     counts), and releases the round; then both serve [per_round] times.
     Both are on a core whenever a round starts, so every round is a real
     overlap of their plain read-modify-writes, and the rounds go on
     until an update is lost ([max_rounds] only turns a hang into a
     failure). The atomic completion count stays exact. *)
  Monitor.serve m ~slot:1;
  let per_round = 8 and max_rounds = 1_000_000 in
  let arrived = Atomic.make 0 and stop = Atomic.make false in
  let serve_round () =
    for _ = 1 to per_round do
      Monitor.serve m ~slot:0
    done
  in
  let helper () =
    let rounds = ref 0 in
    while not (Atomic.get stop) do
      Atomic.incr arrived;
      while Atomic.get arrived < 2 * (!rounds + 1) && not (Atomic.get stop) do
        Domain.cpu_relax ()
      done;
      if not (Atomic.get stop) then begin
        serve_round ();
        incr rounds
      end
    done;
    !rounds
  in
  let d = Domain.spawn helper in
  let rounds = ref 0 in
  while not (Atomic.get stop) do
    while Atomic.get arrived < (2 * !rounds) + 1 do
      Domain.cpu_relax ()
    done;
    if Monitor.lost_update_slots m > 0 || !rounds = max_rounds then
      Atomic.set stop true
    else begin
      Atomic.incr arrived;
      serve_round ();
      incr rounds
    end
  done;
  let helper_rounds = Domain.join d in
  Alcotest.(check int) "one lost-update slot" 1 (Monitor.lost_update_slots m);
  Alcotest.(check int) "completions exact"
    ((per_round * (!rounds + helper_rounds)) + 1)
    (Monitor.total_completions m)

let monitor_abandon_releases_held_slot () =
  let m = Monitor.create ~n:2 ~slots:3 in
  Monitor.enter m ~pid:1 ~slot:2;
  Monitor.enter m ~pid:2 ~slot:0;
  Alcotest.(check int) "abandon returns the held slot" 2
    (Monitor.abandon m ~pid:1);
  Alcotest.(check int) "nothing left to abandon" (-1)
    (Monitor.abandon m ~pid:1);
  Monitor.enter m ~pid:1 ~slot:2;
  Alcotest.(check int) "abandoned slot is free again" 0
    (Monitor.me_violations m);
  Monitor.exit m ~pid:1 ~slot:2;
  Monitor.enter m ~pid:1 ~slot:0;
  Alcotest.(check int) "other pid's slot still held" 1
    (Monitor.me_violations m)

(* --- Crash protocol --- *)

let crash_protocol_epochs () =
  let crash = Rme_native.Crash.create ~n:1 () in
  let epochs_seen = ref [] in
  let d =
    Domain.spawn (fun () ->
        let rounds = ref 0 in
        Rme_native.Crash.worker_run crash ~pid:1 (fun ~epoch ->
            epochs_seen := epoch :: !epochs_seen;
            (* Spin until a crash bumps us out, twice; then finish. *)
            if !rounds < 2 then begin
              incr rounds;
              Rme_native.Crash.spin_until crash (fun () -> false)
            end);
        Rme_native.Crash.worker_done crash ~pid:1)
  in
  Unix.sleepf 0.01;
  Rme_native.Crash.crash crash;
  Unix.sleepf 0.01;
  Rme_native.Crash.crash crash;
  Domain.join d;
  Alcotest.(check int) "epoch advanced twice" 3 (Rme_native.Crash.epoch crash);
  Alcotest.(check (list int)) "worker saw every epoch" [ 3; 2; 1 ]
    !epochs_seen

(* --- Barrier, driven directly --- *)

(* The same Fig. 2 transcription the simulator runs, instantiated over the
   native backend. *)
module NBarrier = Rme.Barrier.Make (Rme_native.Backend)

let barrier_all_pass model () =
  (* All non-leaders arrive first and park; the leader arrives last and
     everyone gets through — repeated across epochs with a real crash
     between rounds. *)
  let n = 3 in
  let rounds = 4 in
  let crash = Rme_native.Crash.create ~n () in
  let mem = Rme_native.Backend.create ~model crash ~n in
  let b = NBarrier.create mem ~name:"b" in
  let passed = Atomic.make 0 in
  let finished = Atomic.make 0 in
  let worker pid () =
    let done_upto = ref 0 in
    Rme_native.Crash.worker_run crash ~pid (fun ~epoch ->
        while !done_upto < rounds && !done_upto < epoch do
          (* leader rotates per epoch *)
          let leader = 1 + (epoch mod n) = pid in
          if not leader then Unix.sleepf 0.0005;
          NBarrier.enter b ~pid ~epoch ~leader;
          incr done_upto;
          ignore (Atomic.fetch_and_add passed 1)
        done;
        (* Park until the next system-wide crash starts the next epoch. *)
        if !done_upto < rounds then
          Rme_native.Crash.spin_until crash (fun () -> false));
    Rme_native.Crash.worker_done crash ~pid;
    Atomic.incr finished
  in
  let domains = List.init n (fun i -> Domain.spawn (worker (i + 1))) in
  for _ = 1 to rounds do
    Unix.sleepf 0.005;
    Rme_native.Crash.crash crash
  done;
  (* On a loaded host a crash can catch a worker inside its last round.
     It retries the round in the next epoch as a non-leader, and that
     epoch's leader may already have finished, so nobody opens the
     barrier for it. Keep crashing until the rotation makes a live worker
     the leader and every worker is done. *)
  while Atomic.get finished < n do
    Unix.sleepf 0.005;
    Rme_native.Crash.crash crash
  done;
  List.iter Domain.join domains;
  Alcotest.(check bool)
    "every attempted round passed everyone" true
    (Atomic.get passed >= n * (rounds - 1))

(* --- Stacks, failure-free --- *)

let native_stacks_failure_free () =
  List.iter
    (fun stack ->
      let r =
        Rme_native.Workers.run ~n:module_n ~passages:5_000
          ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n stack)
          ()
      in
      assert_native_clean (stack ^ " failure-free") r;
      Alcotest.(check int)
        (stack ^ " all passages")
        (module_n * 5_000)
        (Array.fold_left ( + ) 0 r.Rme_native.Workers.completed))
    Rme_native.Stack.recoverable_names

let native_conventional_failure_free () =
  List.iter
    (fun name ->
      let r =
        Rme_native.Workers.run ~n:module_n ~passages:5_000
          ~make:(fun crash ~n ->
            let m = Rme_native.Stack.conventional crash ~n name in
            {
              Rme_native.Intf.name;
              recover = (fun ~pid:_ ~epoch:_ -> ());
              enter = (fun ~pid ~epoch:_ -> m.Rme_native.Intf.enter ~pid);
              exit = (fun ~pid ~epoch:_ -> m.Rme_native.Intf.exit ~pid);
            })
          ()
      in
      assert_native_clean (name ^ " failure-free") r)
    Rme_native.Stack.conventional_names

(* --- Stacks under crash storms --- *)

let native_storms () =
  List.iter
    (fun stack ->
      let r =
        Rme_native.Workers.run ~crash_interval:0.001 ~max_crashes:25
          ~n:module_n ~passages:30_000
          ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n stack)
          ()
      in
      assert_native_clean (stack ^ " storm") r)
    storm_roster

let native_csr_stacks_hold_csr () =
  List.iter
    (fun stack ->
      (* Accumulate until the storm actually crashes someone inside the
         CS (visible as re-entries). *)
      let reentries = ref 0 in
      let attempts = ref 0 in
      while !reentries = 0 && !attempts < 8 do
        incr attempts;
        let r =
          Rme_native.Workers.run ~crash_interval:0.0005 ~max_crashes:30
            ~n:module_n ~passages:30_000
            ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n stack)
            ()
        in
        assert_native_clean (stack ^ " csr storm") r;
        Alcotest.(check int)
          (stack ^ " zero CSR violations")
          0 r.Rme_native.Workers.csr_violations;
        reentries := !reentries + r.Rme_native.Workers.csr_reentries
      done;
      if !reentries = 0 then
        Alcotest.failf "%s: storms never crashed anyone inside the CS" stack)
    csr_storm_roster

let native_distributed_barrier_storm () =
  let r =
    Rme_native.Workers.run ~crash_interval:0.001 ~max_crashes:25 ~n:module_n
      ~passages:30_000
      ~make:(fun crash ~n ->
        Rme_native.Stack.recoverable ~model:Sim.Memory.Dsm crash ~n "t3-mcs")
      ()
  in
  assert_native_clean "t3-mcs distributed-barrier storm" r

let native_jjj_dsm_storm () =
  (* The DSM instantiation of Algorithm 2 (DESIGN.md §5.18): recovery
     goes through the distributed barrier machinery on real domains. *)
  let r =
    Rme_native.Workers.run ~crash_interval:0.001 ~max_crashes:25 ~n:module_n
      ~passages:30_000
      ~make:(fun crash ~n ->
        Rme_native.Stack.recoverable ~model:Sim.Memory.Dsm crash ~n "jjj-dsm")
      ()
  in
  assert_native_clean "jjj-dsm distributed-barrier storm" r

let native_substrate_variant_storms () =
  (* The E14 ablation axes must not change what the monitors see: padded
     and unpadded cells, tuned and bare spinning, CC and DSM, all clean
     under the same seeded storm. *)
  List.iter
    (fun (stack, model, padded, spin) ->
      let r =
        Rme_native.Workers.run ~crash_interval:0.001 ~max_crashes:15 ~seed:6
          ~spin ~n:module_n ~passages:15_000
          ~make:(fun crash ~n ->
            Rme_native.Stack.recoverable ~model ~padded crash ~n stack)
          ()
      in
      assert_native_clean
        (Printf.sprintf "%s %s storm (padded=%b, spin=%s)" stack
           (match model with Sim.Memory.Cc -> "cc" | Sim.Memory.Dsm -> "dsm")
           padded
           (Rme_native.Backoff.mode_name spin))
        r)
    [
      ("t1-mcs", Sim.Memory.Cc, false, Rme_native.Backoff.Exponential);
      ("t1-mcs", Sim.Memory.Cc, true, Rme_native.Backoff.Spin);
      ("t3-mcs", Sim.Memory.Dsm, false, Rme_native.Backoff.Spin);
      ("t3-mcs", Sim.Memory.Dsm, true, Rme_native.Backoff.Relax);
    ]

let native_pinned_run_clean () =
  (* ~pin is best-effort by contract: the run must be clean either way,
     and the landed-pin count must be sane. *)
  let r =
    Rme_native.Workers.run ~pin:true ~n:2 ~passages:2_000
      ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n "t1-mcs")
      ()
  in
  assert_native_clean "pinned run" r;
  Alcotest.(check bool) "pinned count within [0, n]" true
    (0 <= r.Rme_native.Workers.pinned && r.Rme_native.Workers.pinned <= 2);
  if not Rme_native.Pin.supported then
    Alcotest.(check int) "unsupported: no pins land" 0
      r.Rme_native.Workers.pinned

let native_instrumentation_smoke () =
  (* Latency histograms, the allocation probe, the start barrier and the
     fixed-duration window, each through the metrics validator. *)
  let check_metrics what r =
    match Sim.Json.Schema.check Rme_native.Workers.schema
        (Rme_native.Workers.metrics r)
    with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s: metrics invalid: %s" what e
  in
  let lat =
    Rme_native.Workers.run ~latency:true ~n:2 ~passages:2_000
      ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n "t1-mcs")
      ()
  in
  assert_native_clean "latency run" lat;
  (match lat.Rme_native.Workers.passage_ns with
  | None -> Alcotest.fail "latency armed but no histogram"
  | Some h ->
    Alcotest.(check int) "histogram saw every passage" 4_000
      (Sim.Stats.count h));
  check_metrics "latency run" lat;
  let probe =
    Rme_native.Workers.run ~alloc_probe:true ~n:1
      ~passages:5_000
      ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n "t1-mcs")
      ()
  in
  assert_native_clean "alloc probe run" probe;
  (match probe.Rme_native.Workers.alloc_words_per_passage with
  | None -> Alcotest.fail "probe armed on a failure-free run but no reading"
  | Some w ->
    if w > 1.0 then
      Alcotest.failf "steady-state passage path allocates: %.2f words" w);
  check_metrics "alloc probe run" probe;
  let windowed =
    Rme_native.Workers.run ~run_for:0.05 ~n:2
      ~passages:max_int
      ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n "t1-mcs")
      ()
  in
  assert_native_clean "windowed run" windowed;
  Alcotest.(check bool) "window closed the run" true
    (Array.fold_left ( + ) 0 windowed.Rme_native.Workers.completed < max_int);
  check_metrics "windowed run" windowed

let native_window_outlives_sampler () =
  (* The sampler thread must not outlive a short window: with a sample
     interval much longer than the run, the old whole-interval sleep kept
     Thread.join (and so Workers.run) blocked until the interval expired.
     The chunked wait notices the finished run within ~10 ms. *)
  let t0 = Unix.gettimeofday () in
  let windowed =
    Rme_native.Workers.run ~run_for:0.05 ~sample_interval:5.0
      ~n:2 ~passages:max_int
      ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n "t1-mcs")
      ()
  in
  let wall = Unix.gettimeofday () -. t0 in
  assert_native_clean "windowed sampler run" windowed;
  if wall > 2.0 then
    Alcotest.failf
      "sampler outlived the 0.05s window: run took %.2fs (interval 5s)" wall;
  Alcotest.(check bool) "window closed the run" true
    (Array.fold_left ( + ) 0 windowed.Rme_native.Workers.completed < max_int);
  (* A small fixed budget that finishes well inside one interval must
     shut the sampler down just as cleanly, and the metrics (with their
     possibly-empty samples list) must still validate. *)
  let t0 = Unix.gettimeofday () in
  let budgeted =
    Rme_native.Workers.run ~sample_interval:5.0 ~n:2
      ~passages:200
      ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n "t1-mcs")
      ()
  in
  let wall = Unix.gettimeofday () -. t0 in
  assert_native_clean "budgeted sampler run" budgeted;
  if wall > 2.0 then
    Alcotest.failf "sampler stalled a 200-passage run for %.2fs" wall;
  List.iter
    (fun r ->
      match Sim.Json.Schema.check Rme_native.Workers.schema
        (Rme_native.Workers.metrics r)
      with
      | Ok () -> ()
      | Error e -> Alcotest.failf "sampler-run metrics invalid: %s" e)
    [ windowed; budgeted ]

let native_many_domains () =
  (* Oversubscribe well beyond the core count. *)
  let n = 8 in
  let r =
    Rme_native.Workers.run ~crash_interval:0.002 ~max_crashes:10 ~n
      ~passages:5_000
      ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n "t3-mcs")
      ()
  in
  assert_native_clean "t3-mcs 8 domains" r

let () =
  Alcotest.run "native"
    [
      ( "natomic",
        [
          case "cas-old-value" natomic_cas_old_value;
          case "fas-faa" natomic_fas_faa;
          case "cas-contended" natomic_cas_contended;
        ] );
      ( "substrate",
        [
          case "backoff-seeded-replay" backoff_seeded_replay;
          case "backoff-window-cap" backoff_window_cap_and_reset;
          case "backoff-degenerate-modes" backoff_degenerate_modes;
          case "padded-cell-ops" padded_cell_basic_ops;
          case "padded-cell-stride" padded_cell_stride;
          case "padded-cell-footprint" padded_cell_footprint;
          case "stack-footprint" stack_footprint;
          case "pin-noop-when-unsupported" pin_noop_when_unsupported;
          case "pinned-run-clean" native_pinned_run_clean;
          case "instrumentation-smoke" native_instrumentation_smoke;
          case "window-outlives-sampler" native_window_outlives_sampler;
          case "kernel-barrier-controller" kernel_barrier_and_controller;
          case "kernel-window" kernel_window_ends_unbounded_budget;
          case "probe-under-window" probe_under_window;
          case "monitor-violations" monitor_counts_violations;
          case "monitor-abandon" monitor_abandon_releases_held_slot;
        ] );
      ("crash-protocol", [ case "epochs" crash_protocol_epochs ]);
      ( "barrier",
        [
          case "cc-path" (barrier_all_pass Sim.Memory.Cc);
          case "dsm-path" (barrier_all_pass Sim.Memory.Dsm);
        ] );
      ( "failure-free",
        [
          case "recoverable-stacks" native_stacks_failure_free;
          case "conventional-locks" native_conventional_failure_free;
        ] );
      ( "storms",
        [
          slow_case "stacks" native_storms;
          slow_case "csr-holds" native_csr_stacks_hold_csr;
          slow_case "distributed-barrier" native_distributed_barrier_storm;
          slow_case "jjj-dsm-distributed" native_jjj_dsm_storm;
          slow_case "substrate-variants" native_substrate_variant_storms;
          slow_case "many-domains" native_many_domains;
        ] );
    ]
