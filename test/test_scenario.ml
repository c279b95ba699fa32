(* Tests for the Scenario builder (DESIGN.md §5.16): builder-vs-legacy
   parity for the four ported scenarios across every reduction level,
   the scenario registry, the injectable faults (lost wakeups and
   delayed-visibility windows), and the counterexample shrinker —
   replayability and local minimality. *)

open Sim
open Testutil

module MC = Harness.Model_check

(* --- Encode.mix_refs --- *)

let mix_refs_matches_manual_chain () =
  let a = ref 3 and b = ref 17 and c = ref (-5) in
  let manual =
    Encode.mix (Encode.mix (Encode.mix Encode.fingerprint_seed !a) !b) !c
  in
  Alcotest.(check int)
    "mix_refs folds left like the hand-rolled chain" manual
    (Encode.mix_refs Encode.fingerprint_seed [ a; b; c ]);
  Alcotest.(check int)
    "empty list is the seed" Encode.fingerprint_seed
    (Encode.mix_refs Encode.fingerprint_seed [])

(* --- the registry --- *)

let registry_has_builtins () =
  let names = Harness.Scenario.names () in
  List.iter
    (fun required ->
      Alcotest.(check bool) (required ^ " registered") true
        (List.mem required names))
    [ "rme"; "mutex"; "barrier"; "barrier-sub" ];
  List.iter
    (fun name ->
      match Harness.Scenario.find name with
      | None -> Alcotest.failf "find %S returned None" name
      | Some build ->
        (* Every registered scenario must build with the defaults. *)
        let sc = build Harness.Scenario.default_params in
        Alcotest.(check bool)
          (name ^ " builds with positive n")
          true (sc.MC.n > 0))
    names

let registry_rejects_duplicates () =
  Alcotest.check_raises "duplicate registration"
    (Invalid_argument "Scenario.register: duplicate name rme")
    (fun () ->
      Harness.Scenario.register ~name:"rme" ~summary:"dup" ~needs_stack:true
        (fun _ -> assert false))

(* --- builder vs legacy parity ---

   In-test copies of the hand-rolled scenario bodies that lib/harness/
   scenarios.ml carried before the builder refactor, byte-for-byte. The
   builder compositions must produce identical outcomes — runs, steps,
   violations, deadlocks, distinct_states, witness — at every reduction
   level, which pins both the monitor semantics and the fingerprint
   chain (a drifted fingerprint changes distinct_states under Dedup). *)

let legacy_rme ?(passages = 1) ?(check_csr = true) ~n ~model ~make () =
  let make_body mem (ctx : MC.ctx) =
    let lock = make mem in
    let counter = Memory.global mem ~name:"mc.protected" 0 in
    let completed = Array.make (n + 1) 0 in
    let occupant = ref 0 in
    let csr_owner = ref 0 in
    let cs_done = ref 0 in
    (* The search reuses one world per explore call: put the fixture's
       own state back at every reset. *)
    Memory.on_reset mem (fun () ->
        Array.fill completed 0 (n + 1) 0;
        occupant := 0;
        csr_owner := 0;
        cs_done := 0);
    ctx.on_crash (fun ~epoch:_ ->
        if !occupant <> 0 then csr_owner := !occupant;
        occupant := 0);
    ctx.on_crash_one (fun ~pid ->
        if !occupant = pid then begin
          csr_owner := pid;
          occupant := 0
        end);
    ctx.on_finish (fun () ->
        if Memory.peek counter <> !cs_done then
          ctx.violation
            (Printf.sprintf "lost update: counter=%d, completions=%d"
               (Memory.peek counter) !cs_done));
    ctx.on_fingerprint (fun () ->
        Encode.mix_array
          (Encode.mix
             (Encode.mix (Encode.mix Encode.fingerprint_seed !occupant)
                !csr_owner)
             !cs_done)
          completed);
    fun ~pid ~epoch ->
      while completed.(pid) < passages do
        lock.Rme.Rme_intf.recover ~pid ~epoch;
        lock.Rme.Rme_intf.enter ~pid ~epoch;
        if !occupant <> 0 then
          ctx.violation
            (Printf.sprintf "mutual exclusion: p%d entered while p%d in CS"
               pid !occupant);
        occupant := pid;
        if !csr_owner <> 0 then
          if !csr_owner = pid then csr_owner := 0
          else if check_csr then
            ctx.violation
              (Printf.sprintf "CSR: p%d entered before crashed owner p%d" pid
                 !csr_owner);
        let v = Proc.read counter in
        Proc.write counter (v + 1);
        occupant := 0;
        incr cs_done;
        lock.Rme.Rme_intf.exit ~pid ~epoch;
        completed.(pid) <- completed.(pid) + 1
      done
  in
  { MC.n; model; make_body }

let legacy_mutex ?passages ~n ~model ~make () =
  legacy_rme ?passages ~check_csr:false ~n ~model
    ~make:(fun mem -> Rme.Rme_intf.of_mutex (make mem))
    ()

let legacy_barrier_generic ~epochs ~n ~model ~leader_of ~make_enter =
  let make_body mem (ctx : MC.ctx) =
    let enter = make_enter mem in
    let completed = Array.make (n + 1) 0 in
    let leader_begun = ref (-1) in
    Memory.on_reset mem (fun () ->
        Array.fill completed 0 (n + 1) 0;
        leader_begun := -1);
    ctx.on_fingerprint (fun () ->
        Encode.mix_array
          (Encode.mix Encode.fingerprint_seed !leader_begun)
          completed);
    fun ~pid ~epoch ->
      while completed.(pid) < epochs && completed.(pid) < epoch do
        let lid = leader_of ~epoch in
        if pid = lid then leader_begun := epoch;
        enter ~pid ~epoch ~lid ~leader:(pid = lid);
        if !leader_begun < epoch then
          ctx.violation
            (Printf.sprintf
               "barrier spec (i): p%d's call returned in epoch %d before \
                the leader began"
               pid epoch);
        completed.(pid) <- completed.(pid) + 1
      done
  in
  { MC.n; model; make_body }

let legacy_barrier ?(epochs = 1) ~n ~model () =
  legacy_barrier_generic ~epochs ~n ~model
    ~leader_of:(fun ~epoch:_ -> 1)
    ~make_enter:(fun mem ->
      let b = Rme.Barrier.create mem ~name:"mc.bar" in
      fun ~pid ~epoch ~lid:_ ~leader -> Rme.Barrier.enter b ~pid ~epoch ~leader)

let legacy_barrier_sub ?(lid = 1) ~n ~model () =
  legacy_barrier_generic ~epochs:1 ~n ~model
    ~leader_of:(fun ~epoch:_ -> lid)
    ~make_enter:(fun mem ->
      let b = Rme.Barrier_sub.create mem ~name:"mc.bsub" in
      fun ~pid ~epoch ~lid ~leader:_ -> Rme.Barrier_sub.enter b ~pid ~epoch ~lid)

let reductions = [ MC.No_reduction; MC.Dedup; MC.Por ]

let check_outcomes what (a : MC.outcome) (b : MC.outcome) =
  Alcotest.(check int) (what ^ ": runs") a.MC.runs b.MC.runs;
  Alcotest.(check int) (what ^ ": steps") a.MC.steps b.MC.steps;
  Alcotest.(check (list string))
    (what ^ ": violations") a.MC.violations b.MC.violations;
  Alcotest.(check int) (what ^ ": deadlocks") a.MC.deadlocks b.MC.deadlocks;
  Alcotest.(check int)
    (what ^ ": step-cap hits") a.MC.step_cap_hits b.MC.step_cap_hits;
  Alcotest.(check int)
    (what ^ ": distinct states") a.MC.distinct_states b.MC.distinct_states;
  Alcotest.(check int)
    (what ^ ": pruned runs") a.MC.pruned_runs b.MC.pruned_runs;
  Alcotest.(check (option (array int)))
    (what ^ ": witness") a.MC.witness b.MC.witness

let parity ~name ~divergence_bound ~crash_bound builder legacy () =
  List.iter
    (fun reduction ->
      let run sc =
        MC.explore ~divergence_bound ~crash_bound ~reduction sc
      in
      check_outcomes
        (Printf.sprintf "%s (%s)" name (MC.reduction_to_string reduction))
        (run legacy) (run builder))
    reductions

let rme_parity_violating =
  (* t1-mcs at n=2, d=2, c=1: a known CSR counterexample, so parity also
     covers the violating path and the witness. *)
  let make mem = Rme.Stack.recoverable mem "t1-mcs" in
  parity ~name:"rme t1-mcs" ~divergence_bound:2 ~crash_bound:1
    (Harness.Scenarios.rme ~n:2 ~model:Memory.Cc ~make ())
    (legacy_rme ~n:2 ~model:Memory.Cc ~make ())

let rme_parity_clean =
  let make mem = Rme.Stack.recoverable mem "t3-mcs" in
  parity ~name:"rme t3-mcs" ~divergence_bound:1 ~crash_bound:1
    (Harness.Scenarios.rme ~n:2 ~model:Memory.Cc ~make ())
    (legacy_rme ~n:2 ~model:Memory.Cc ~make ())

let mutex_parity =
  let make mem = Rme.Stack.conventional mem "mcs" in
  parity ~name:"mutex mcs" ~divergence_bound:2 ~crash_bound:0
    (Harness.Scenarios.mutex ~n:2 ~model:Memory.Cc ~make ())
    (legacy_mutex ~n:2 ~model:Memory.Cc ~make ())

let barrier_parity =
  parity ~name:"barrier" ~divergence_bound:1 ~crash_bound:1
    (Harness.Scenarios.barrier ~epochs:2 ~n:2 ~model:Memory.Cc ())
    (legacy_barrier ~epochs:2 ~n:2 ~model:Memory.Cc ())

let barrier_sub_parity =
  parity ~name:"barrier-sub" ~divergence_bound:1 ~crash_bound:0
    (Harness.Scenarios.barrier_sub ~n:3 ~model:Memory.Dsm ())
    (legacy_barrier_sub ~n:3 ~model:Memory.Dsm ())

(* --- injectable faults --- *)

(* p1 parks on [await c <> 0]; p2 writes c. A lost wakeup must keep p1
   blocked past the write that would have woken it only while the
   watched value is unchanged — the wakeup re-delivers on change, on a
   spurious step, and on drain_faults. *)
let lost_wakeup_semantics () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"c" 0 in
  let woke = ref false in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
        if pid = 1 then begin
          ignore (Proc.await c ~until:(fun v -> v <> 0));
          woke := true
        end
        else Proc.write c 1)
  in
  Runtime.step rt 1;
  (* p1 is parked at the await. *)
  Alcotest.(check bool) "p1 awaiting" true (Runtime.awaiting rt 1);
  Alcotest.(check bool) "lose_wakeup arms" true (Runtime.lose_wakeup rt 1);
  Alcotest.(check bool) "suppressed = blocked" true (Runtime.blocked rt 1);
  (* The wakeup was lost, but the value changing re-delivers it: the
     suppression watches the recorded value. *)
  Runtime.step rt 2;
  Alcotest.(check bool) "write re-delivers" false (Runtime.blocked rt 1);
  Runtime.step rt 1;
  Alcotest.(check bool) "p1 resumed through the await" true !woke

let lost_wakeup_spurious_step_clears () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"c" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
        if pid = 1 then ignore (Proc.await c ~until:(fun v -> v <> 0)))
  in
  Runtime.step rt 1;
  Alcotest.(check bool) "arms" true (Runtime.lose_wakeup rt 1);
  Alcotest.(check bool) "suppressed" true (Runtime.blocked rt 1);
  (* An explicit step of the suppressed process is a spurious wakeup:
     the suppression clears (the await itself still spins on c = 0). *)
  Runtime.step rt 1;
  Alcotest.(check bool) "spurious step cleared the suppression" false
    (match Runtime.blocked_on rt 1 with
    | Some _ -> Runtime.lose_wakeup rt 1 = false
    | None -> false);
  Alcotest.(check bool) "drain clears a re-armed suppression" true
    (let (_ : bool) = Runtime.lose_wakeup rt 1 in
     Runtime.drain_faults rt)

let lose_wakeup_rejects_non_awaiting () =
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let c = Memory.global mem ~name:"c" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid:_ ~epoch:_ -> Proc.write c 1)
  in
  Alcotest.(check bool) "fresh process is not awaiting" false
    (Runtime.lose_wakeup rt 1);
  Alcotest.check_raises "pid out of range"
    (Invalid_argument "Runtime.lose_wakeup: bad pid") (fun () ->
      ignore (Runtime.lose_wakeup rt 9))

let delayed_write_semantics () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"c" 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
        if pid = 1 then begin
          Proc.write c 1;
          Proc.write c 2
        end)
  in
  Runtime.delay_writes rt 1 ~window:3;
  Runtime.step rt 1;
  (* The write is parked in p1's store buffer: globally invisible. *)
  Alcotest.(check int) "write parked" 0 (Memory.peek c);
  (* p1's own next operation is a fence: it drains the buffer first. *)
  Runtime.step rt 1;
  Alcotest.(check int) "own next op drained the buffer" 2 (Memory.peek c)

let delayed_write_crash_discards () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"c" 0 in
  let writes = ref 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
        if pid = 1 && !writes = 0 then begin
          incr writes;
          Proc.write c 1
        end)
  in
  Runtime.delay_writes rt 1 ~window:100;
  Runtime.step rt 1;
  Alcotest.(check int) "parked" 0 (Memory.peek c);
  (* A crash loses the buffered write entirely (NVRAM semantics: the
     store never reached memory). *)
  Runtime.crash rt ();
  Alcotest.(check int) "crash discarded the buffered write" 0 (Memory.peek c);
  Alcotest.(check bool) "nothing left to drain" false (Runtime.drain_faults rt)

let delay_writes_rejects_bad_window () =
  let mem = Memory.create ~model:Memory.Cc ~n:1 in
  let rt = Runtime.create mem ~body:(fun ~pid:_ ~epoch:_ -> ()) in
  Alcotest.check_raises "window must be >= 1"
    (Invalid_argument "Runtime.delay_writes: window must be >= 1") (fun () ->
      Runtime.delay_writes rt 1 ~window:0)

(* --- the shrinker --- *)

let t1_csr_witness () =
  let sc =
    Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t1-mcs")
      ()
  in
  let o = MC.explore ~divergence_bound:2 ~crash_bound:1 sc in
  match o.MC.witness with
  | None -> Alcotest.fail "expected a CSR witness for t1-mcs"
  | Some w -> (sc, w)

let decide_of m =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (pos, d) -> Hashtbl.replace tbl pos d)
    m.Harness.Shrink.s_interventions;
  fun ~pos ~enabled:_ ~default ->
    match Hashtbl.find_opt tbl pos with Some d -> d | None -> default

let shrunk_schedule_replays () =
  let sc, w = t1_csr_witness () in
  match Harness.Shrink.minimize sc w with
  | None -> Alcotest.fail "minimize returned None on a violating trace"
  | Some m ->
    Alcotest.(check bool)
      "minimized schedule records violations" true
      (m.Harness.Shrink.s_violations <> []);
    (* (a) The minimized interventions alone — everything else on the
       run-until-blocked default — still reproduce a violation. *)
    let rp = MC.run_schedule ~decide:(decide_of m) sc in
    Alcotest.(check bool) "replay violates" true (rp.MC.rp_violations <> []);
    Alcotest.(check (list string))
      "replay reproduces the recorded violations" m.Harness.Shrink.s_violations
      rp.MC.rp_violations;
    (* The minimized trace is also a prefix-closed decision array that
       replays verbatim. *)
    let forced = m.Harness.Shrink.s_trace in
    let rp2 =
      MC.run_schedule
        ~decide:(fun ~pos ~enabled:_ ~default ->
          if pos < Array.length forced then forced.(pos) else default)
        sc
    in
    Alcotest.(check bool) "verbatim trace replay violates" true
      (rp2.MC.rp_violations <> [])

let shrunk_schedule_is_locally_minimal () =
  let sc, w = t1_csr_witness () in
  match Harness.Shrink.minimize sc w with
  | None -> Alcotest.fail "minimize returned None"
  | Some m ->
    let ivs = m.Harness.Shrink.s_interventions in
    Alcotest.(check bool) "has at least one intervention" true (ivs <> []);
    (* (b) 1-minimal: dropping any single intervention loses the
       violation (the sweep ran to fixpoint). *)
    List.iteri
      (fun i _ ->
        let without = List.filteri (fun j _ -> j <> i) ivs in
        let tbl = Hashtbl.create 16 in
        List.iter (fun (pos, d) -> Hashtbl.replace tbl pos d) without;
        let rp =
          MC.run_schedule
            ~decide:(fun ~pos ~enabled:_ ~default ->
              match Hashtbl.find_opt tbl pos with
              | Some d -> d
              | None -> default)
            sc
        in
        if rp.MC.rp_violations <> [] then
          Alcotest.failf
            "dropping intervention %d still violates — not 1-minimal" i)
      ivs

let clean_trace_shrinks_to_none () =
  let sc =
    Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t3-mcs")
      ()
  in
  (* The default run-until-blocked schedule is clean for t3-mcs, so its
     trace must not "shrink" to a violation. *)
  let rp = MC.run_schedule ~decide:(fun ~pos:_ ~enabled:_ ~default -> default) sc in
  Alcotest.(check (list string)) "clean run" [] rp.MC.rp_violations;
  Alcotest.(check bool) "minimize rejects a clean trace" true
    (Harness.Shrink.minimize sc rp.MC.rp_trace = None)

let storm_violation_shrinks () =
  (* End-to-end: a seeded storm (not the model checker) finds the T1 CSR
     violation; the shrinker reduces that long storm trace to a compact
     replayable schedule. *)
  let t =
    Harness.Scenario.rme_lock ~passages:10 ~n:2 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t1-mcs")
      ()
  in
  let seed =
    (* First seed whose storm violates (the transforms suite pins that
       such seeds exist). *)
    List.find
      (fun seed ->
        let r =
          Harness.Scenario.storm ~seed ~schedule:(storm ~seed ~mean:25 ()) t
        in
        r.Harness.Scenario.st_violations <> [])
      [ 1; 2; 3; 4; 5; 6; 7; 8 ]
  in
  let r = Harness.Scenario.storm ~seed ~schedule:(storm ~seed ~mean:25 ()) t in
  let sc = Harness.Scenario.to_scenario t in
  match
    Harness.Shrink.minimize ~max_steps:2_000_000 sc r.Harness.Scenario.st_trace
  with
  | None -> Alcotest.fail "storm trace did not shrink"
  | Some m ->
    Alcotest.(check bool) "shrunk below the storm trace" true
      (Array.length m.Harness.Shrink.s_trace
      <= Array.length r.Harness.Scenario.st_trace);
    Alcotest.(check bool) "few interventions" true
      (List.length m.Harness.Shrink.s_interventions
      < Array.length r.Harness.Scenario.st_trace);
    let rp = MC.run_schedule ~max_steps:2_000_000 ~decide:(decide_of m) sc in
    Alcotest.(check (list string))
      "storm shrink replays" m.Harness.Shrink.s_violations rp.MC.rp_violations

(* --- in-place reuse (DESIGN.md §5.14) ---

   The model checker builds one world per search and resets it before
   every run. A reset world must behave exactly like a fresh one. *)

let memory_reset_restores () =
  let build () =
    let mem = Memory.create ~model:Memory.Cc ~n:2 in
    let a = Memory.global mem ~name:"a" 5 in
    let b = Memory.cell mem ~name:"b" ~home:2 0 in
    (mem, a, b)
  in
  let mem, a, b = build () in
  let order = ref [] in
  Memory.on_reset mem (fun () -> order := 1 :: !order);
  Memory.on_reset mem (fun () -> order := 2 :: !order);
  let fresh, fa, _ = build () in
  Memory.reset mem;
  Alcotest.(check (list int)) "restores run in registration order" [ 2; 1 ]
    !order;
  ignore (Memory.fingerprint mem);
  ignore (Memory.sym_part mem 1);
  ignore (Memory.exec_read mem ~pid:1 a);
  ignore (Memory.exec_write mem ~pid:2 b 9);
  ignore (Memory.exec_faa mem ~pid:1 a 3);
  ignore (Memory.exec_read mem ~pid:2 a);
  ignore (Memory.snapshot mem);
  Memory.reset mem;
  Alcotest.(check (array int)) "values" (Memory.snapshot fresh)
    (Memory.snapshot mem);
  Alcotest.(check (pair int int)) "counters" (0, 0)
    (Memory.total_rmrs mem, Memory.steps mem ~pid:1 + Memory.steps mem ~pid:2);
  Alcotest.(check int) "fingerprint" (Memory.fingerprint fresh)
    (Memory.fingerprint mem);
  Alcotest.(check int) "sym slice" (Memory.sym_part fresh 2)
    (Memory.sym_part mem 2);
  (* pid 2 had [a] cached before the reset: its next read is an RMR
     again, as on the fresh memory. *)
  ignore (Memory.exec_read fresh ~pid:2 fa);
  ignore (Memory.exec_read mem ~pid:2 a);
  Alcotest.(check int) "reader sets cleared" (Memory.rmrs fresh ~pid:2)
    (Memory.rmrs mem ~pid:2);
  Alcotest.check_raises "allocation after the seal"
    (Invalid_argument "Memory.cell: memory already sealed by reset")
    (fun () -> ignore (Memory.global mem ~name:"late" 0));
  Alcotest.check_raises "restore registered after the seal"
    (Invalid_argument "Memory.on_reset: memory already sealed by reset")
    (fun () -> Memory.on_reset mem ignore)

let runtime_reset_restores () =
  let build () =
    let mem = Memory.create ~model:Memory.Cc ~n:2 in
    let c = Memory.global mem ~name:"c" 0 in
    let rt =
      Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
          if pid = 1 then ignore (Proc.await c ~until:(fun v -> v <> 0))
          else Proc.write c 1)
    in
    (mem, rt)
  in
  let mem, rt = build () in
  let hooks = ref 0 in
  Runtime.on_crash rt (fun ~epoch:_ -> incr hooks);
  ignore (Runtime.fingerprint rt);
  Runtime.step rt 1;
  ignore (Runtime.lose_wakeup rt 1);
  Runtime.delay_writes rt 2 ~window:3;
  Runtime.crash rt ~bump:2 ();
  Runtime.step rt 1;
  Runtime.reset rt;
  Memory.reset mem;
  let _, fresh = build () in
  Alcotest.(check (list int)) "every process back in the NCS" [ 1; 2 ]
    (Runtime.enabled rt);
  Alcotest.(check (list int)) "epoch, clock, crashes" [ 1; 0; 0 ]
    [ Runtime.epoch rt; Runtime.clock rt; Runtime.crashes rt ];
  Alcotest.(check int) "fingerprint, faults included"
    (Runtime.fingerprint fresh) (Runtime.fingerprint rt);
  Alcotest.(check int) "slow fingerprint" (Runtime.fingerprint_slow fresh)
    (Runtime.fingerprint_slow rt);
  Runtime.crash rt ();
  Alcotest.(check int) "crash hooks kept" 2 !hooks

(* A seeded storm as a decide function: system-wide crashes, independent
   crashes, lost wakeups and delayed writes, random preemptions, the
   default otherwise. It owns its rng, so build one per run. *)
let storm_decide ~n ~seed =
  let rng = Random.State.make [| 0x2e05e; seed |] in
  fun ~pos:_ ~enabled ~default ->
    match Random.State.int rng 100 with
    | 0 -> MC.crash_decision
    | 1 -> -(1 + Random.State.int rng n)
    | 2 | 3 -> -(n + 1 + Random.State.int rng n)
    | 4 | 5 -> -((2 * n) + 1 + Random.State.int rng n)
    | k when k < 30 ->
      List.nth enabled (Random.State.int rng (List.length enabled))
    | _ -> default

type observed = {
  o_trace : int array;
  o_violations : string list;
  o_deadlock : bool;
  o_capped : bool;
  o_rmrs : int list;
  o_steps : int list;
  o_snapshot : int array;
  o_fp : int;
  o_sym : int;
}

let storm_on w ~seed =
  let mem = MC.memory w in
  let n = Memory.n mem in
  let rp =
    MC.run_schedule_in ~max_steps:3_000 ~decide:(storm_decide ~n ~seed) w
  in
  let per_pid f = List.init n (fun i -> f mem ~pid:(i + 1)) in
  {
    o_trace = rp.MC.rp_trace;
    o_violations = rp.MC.rp_violations;
    o_deadlock = rp.MC.rp_deadlock;
    o_capped = rp.MC.rp_capped;
    o_rmrs = per_pid Memory.rmrs;
    o_steps = per_pid Memory.steps;
    o_snapshot = Memory.snapshot mem;
    o_fp = MC.state_fingerprint w ~cur:0;
    o_sym = MC.sym_fingerprint w ~cur:0;
  }

(* Runs [storms] seeded storms back to back on one world, each against
   the same storm on a fresh world; returns every field that differed. *)
let reuse_mismatches ?(storms = 8) sc =
  let reused = MC.world sc in
  List.concat_map
    (fun seed ->
      let a = storm_on (MC.world sc) ~seed and b = storm_on reused ~seed in
      List.filter_map
        (fun (what, same) ->
          if same then None else Some (Printf.sprintf "storm %d: %s" seed what))
        [
          ("trace", a.o_trace = b.o_trace);
          ("violations", a.o_violations = b.o_violations);
          ("deadlock", a.o_deadlock = b.o_deadlock);
          ("step cap", a.o_capped = b.o_capped);
          ("per-pid RMRs", a.o_rmrs = b.o_rmrs);
          ("per-pid steps", a.o_steps = b.o_steps);
          ("final snapshot", a.o_snapshot = b.o_snapshot);
          ("state fingerprint", a.o_fp = b.o_fp);
          ("sym fingerprint", a.o_sym = b.o_sym);
        ])
    (List.init storms (fun k -> k + 1))

(* Every registered scenario, over every recoverable and conventional
   stack it accepts, at n=2 on CC and DSM. *)
let reuse_matches_fresh () =
  let stacks = Rme.Stack.recoverable_names @ Rme.Stack.conventional_names in
  let accepted = Hashtbl.create 64 in
  List.iter
    (fun (info : Harness.Scenario.info) ->
      let build = Option.get (Harness.Scenario.find info.i_name) in
      List.iter
        (fun model ->
          List.iter
            (fun stack ->
              let p =
                {
                  Harness.Scenario.default_params with
                  sp_stack = stack;
                  sp_n = 2;
                  sp_model = model;
                  sp_passages = 2;
                  sp_crash_bound = 1;
                }
              in
              let sc = build p in
              match MC.world sc with
              | exception Invalid_argument _ when info.i_needs_stack -> ()
              | _ ->
                Hashtbl.replace accepted stack ();
                let what =
                  Format.asprintf "%s %s %a" info.i_name
                    (if info.i_needs_stack then stack else "-")
                    Memory.pp_model model
                in
                (match reuse_mismatches sc with
                | [] -> ()
                | ms -> Alcotest.failf "%s: %s" what (String.concat "; " ms)))
            (if info.i_needs_stack then stacks else [ "-" ]))
        [ Memory.Cc; Memory.Dsm ])
    (Harness.Scenario.infos ());
  List.iter
    (fun stack ->
      Alcotest.(check bool)
        (stack ^ " checked") true (Hashtbl.mem accepted stack))
    stacks

(* Negative control: a ref that steers control flow but registers no
   restore survives the reset, so the reused world diverges — and
   registering the restore is the whole fix. *)
let unregistered_ref_flagged () =
  let leaky ~register =
    {
      MC.n = 2;
      model = Memory.Cc;
      make_body =
        (fun mem _ctx ->
          let c = Memory.global mem ~name:"leak.c" 0 in
          let runs = ref 0 in
          if register then Memory.on_reset mem (fun () -> runs := 0);
          fun ~pid ~epoch:_ ->
            if pid = 1 then incr runs;
            for _ = 1 to !runs do
              Proc.write c pid
            done);
    }
  in
  Alcotest.(check bool) "unregistered ref flagged" true
    (reuse_mismatches (leaky ~register:false) <> []);
  Alcotest.(check (list string)) "registered ref clean" []
    (reuse_mismatches (leaky ~register:true))

let () =
  Alcotest.run "scenario"
    [
      ( "encode",
        [ case "mix-refs" mix_refs_matches_manual_chain ] );
      ( "registry",
        [
          case "builtins" registry_has_builtins;
          case "duplicate-rejected" registry_rejects_duplicates;
        ] );
      ( "parity",
        [
          slow_case "rme-t1-violating" rme_parity_violating;
          slow_case "rme-t3-clean" rme_parity_clean;
          case "mutex" mutex_parity;
          case "barrier" barrier_parity;
          case "barrier-sub" barrier_sub_parity;
        ] );
      ( "faults",
        [
          case "lost-wakeup" lost_wakeup_semantics;
          case "lost-wakeup-spurious" lost_wakeup_spurious_step_clears;
          case "lost-wakeup-guards" lose_wakeup_rejects_non_awaiting;
          case "delayed-write" delayed_write_semantics;
          case "delayed-write-crash" delayed_write_crash_discards;
          case "delayed-write-guards" delay_writes_rejects_bad_window;
        ] );
      ( "shrink",
        [
          slow_case "replays" shrunk_schedule_replays;
          slow_case "locally-minimal" shrunk_schedule_is_locally_minimal;
          case "clean-trace" clean_trace_shrinks_to_none;
          slow_case "storm-shrinks" storm_violation_shrinks;
        ] );
      ( "reuse",
        [
          case "memory-reset" memory_reset_restores;
          case "runtime-reset" runtime_reset_restores;
          slow_case "matches-fresh" reuse_matches_fresh;
          case "unregistered-ref-flagged" unregistered_ref_flagged;
        ] );
    ]
