(* Tests for the Scenario builder (DESIGN.md §5.16): the checker's fold
   of declared monitor state against hand-written chains, pinned search
   outcomes for the four stock scenarios at every reduction level, the
   scenario registry, the injectable faults (lost wakeups and
   delayed-visibility windows), the counterexample shrinker —
   replayability and local minimality — and in-place world reuse. *)

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

(* The monitor part of the state key the checker derives from declared
   state equals the chains the stock scenarios were first written with:
   refs in declaration order, then arrays. *)
let derived_fold_matches_manual_chain () =
  let occupant = ref 2 and csr_owner = ref 1 and cs_done = ref 7 in
  let completed = [| 0; 3; 4 |] in
  let refs rs = { MC.nothing with d_refs = List.map (fun r -> ("r", r)) rs } in
  let progress = { MC.nothing with d_arrays = [ ("completed", completed) ] } in
  Alcotest.(check int) "rme: mutex, csr, lost-update, completed"
    (Encode.mix_array
       (Encode.mix
          (Encode.mix (Encode.mix Encode.fingerprint_seed !occupant) !csr_owner)
          !cs_done)
       completed)
    (MC.monitor_fingerprint
       [ refs [ occupant ]; refs [ csr_owner ]; refs [ cs_done ]; progress ]);
  let leader_begun = ref 1 in
  Alcotest.(check int) "barrier: leader_begun, completed"
    (Encode.mix_array
       (Encode.mix Encode.fingerprint_seed !leader_begun)
       completed)
    (MC.monitor_fingerprint [ refs [ leader_begun ]; progress ]);
  Alcotest.(check int) "counters and restore-only state stay out"
    (MC.monitor_fingerprint [ refs [ leader_begun ] ])
    (MC.monitor_fingerprint
       [
         {
           (refs [ leader_begun ]) with
           d_counters = [ ("c", ref 5) ];
           d_restore_refs = [ ("h", ref 9) ];
           d_restore_arrays = [ ("e", [| 1; 2 |]) ];
         };
       ])

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
        let sc =
          Harness.Scenario.to_scenario (build Harness.Scenario.default_params)
        in
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

(* --- pinned outcomes ---

   The full search outcome of each stock scenario at every reduction
   level, recorded when the scenarios still had hand-written bodies
   whose fingerprint chains are the ones {!derived_fold_matches_manual_chain}
   checks (the builder forms then matched those bodies under none, dedup
   and por). Runs, steps, distinct states and pruned runs move with any
   change to the monitors, the cell-creation order or either fold, and
   the sym row pins the derived per-pid split. *)

type pinned = {
  runs : int;
  steps : int;
  violations : string list;
  states : int;
  pruned : int;
  witness : int array option;
}

let check_pinned what (p : pinned) (o : MC.outcome) =
  Alcotest.(check int) (what ^ ": runs") p.runs o.MC.runs;
  Alcotest.(check int) (what ^ ": steps") p.steps o.MC.steps;
  Alcotest.(check (list string))
    (what ^ ": violations") p.violations o.MC.violations;
  Alcotest.(check int) (what ^ ": deadlocks") 0 o.MC.deadlocks;
  Alcotest.(check int) (what ^ ": step-cap hits") 0 o.MC.step_cap_hits;
  Alcotest.(check int) (what ^ ": distinct states") p.states o.MC.distinct_states;
  Alcotest.(check int) (what ^ ": pruned runs") p.pruned o.MC.pruned_runs;
  Alcotest.(check (option (array int))) (what ^ ": witness") p.witness o.MC.witness

let pin ?(violations = []) ?witness runs steps states pruned =
  { runs; steps; violations; states; pruned; witness }

(* [rows] gives none, dedup, por and sym, in that order. *)
let pinned ~name ~divergence_bound ~crash_bound sc rows () =
  List.iter2
    (fun reduction row ->
      check_pinned
        (Printf.sprintf "%s (%s)" name (MC.reduction_to_string reduction))
        row
        (MC.explore ~divergence_bound ~crash_bound ~reduction sc))
    [ MC.No_reduction; MC.Dedup; MC.Por; MC.Sym ]
    rows

let rme_pinned_violating =
  (* t1-mcs at n=2, d=2, c=1: a known CSR counterexample, so the pins
     also cover the violating path and the witness. *)
  let violations =
    [
      "CSR: p1 entered before crashed owner p2";
      "CSR: p2 entered before crashed owner p1";
    ]
  in
  let dfs =
    [| 2; 2; 2; 2; 2; 2; 2; 0; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 2; 2; 2 |]
  in
  pinned ~name:"rme t1-mcs" ~divergence_bound:2 ~crash_bound:1
    (Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
       ~make:(fun mem -> Rme.Stack.recoverable mem "t1-mcs")
       ())
    [
      pin ~violations
        ~witness:
          [|
            2; 2; 2; 2; 2; 2; 2; 0; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 2; 2; 2; 2;
            2; 2; 2;
          |]
        3455 98871 0 0;
      pin ~violations ~witness:dfs 1099 19932 3593 918;
      pin ~violations ~witness:dfs 680 12979 2641 538;
      pin ~violations
        ~witness:
          [| 1; 2; 2; 2; 2; 2; 2; 2; 0; 2; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 1; 2; 2; 2; 2 |]
        495 10025 2111 379;
    ]

let rme_pinned_clean =
  pinned ~name:"rme t3-mcs" ~divergence_bound:1 ~crash_bound:1
    (Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
       ~make:(fun mem -> Rme.Stack.recoverable mem "t3-mcs")
       ())
    [
      pin 2244 148620 0 0;
      pin 1142 43850 8552 973;
      pin 1142 43850 8552 973;
      pin 1142 43850 8552 973;
    ]

let mutex_pinned =
  pinned ~name:"mutex mcs" ~divergence_bound:2 ~crash_bound:0
    (Harness.Scenarios.mutex ~n:2 ~model:Memory.Cc
       ~make:(fun mem -> Rme.Stack.conventional mem "mcs")
       ())
    [ pin 29 430 0 0; pin 29 257 112 22; pin 16 172 105 9; pin 11 123 75 5 ]

let barrier_pinned =
  pinned ~name:"barrier" ~divergence_bound:1 ~crash_bound:1
    (Harness.Scenarios.barrier ~epochs:2 ~n:2 ~model:Memory.Cc ())
    [ pin 9 45 0 0; pin 9 39 22 4; pin 9 39 22 4; pin 9 39 21 5 ]

let barrier_sub_pinned =
  pinned ~name:"barrier-sub" ~divergence_bound:1 ~crash_bound:0
    (Harness.Scenarios.barrier_sub ~n:3 ~model:Memory.Dsm ())
    [ pin 18 232 0 0; pin 18 174 97 13; pin 18 174 97 13; pin 18 124 44 16 ]

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

(* The reset contract at O(touched): a reset restores only the cells
   changed since the last one, and the digests resync from the
   allocation digests plus those cells. *)
let reset_fixture () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let a = Memory.global mem ~name:"a" 5 in
  let b = Memory.cell mem ~name:"b" ~home:1 0 in
  let c = Memory.cell mem ~name:"c" ~home:2 7 in
  (mem, a, b, c)

let reset_clears_read_only_readers () =
  let mem, a, _, _ = reset_fixture () in
  Memory.reset mem;
  ignore (Memory.exec_read mem ~pid:1 a);
  Memory.reset mem;
  (* [a] was only read, so its value never changed; the reset must still
     empty its reader set, or pid 1's next read is an in-cache hit. *)
  ignore (Memory.exec_read mem ~pid:1 a);
  Alcotest.(check int) "first read after the reset is an RMR" 1
    (Memory.rmrs mem ~pid:1)

let reset_back_to_back () =
  let mem, a, b, c = reset_fixture () in
  let restores = ref 0 in
  Memory.on_reset mem (fun () -> incr restores);
  let fresh, _, _, _ = reset_fixture () in
  Memory.reset mem;
  ignore (Memory.exec_write mem ~pid:1 b 3);
  ignore (Memory.exec_read mem ~pid:2 a);
  ignore (Memory.exec_fas mem ~pid:2 c 1);
  ignore (Memory.fingerprint mem);
  Memory.reset mem;
  Memory.reset mem;
  Alcotest.(check int) "restores ran at every reset" 3 !restores;
  Alcotest.(check (array int)) "values" (Memory.snapshot fresh)
    (Memory.snapshot mem);
  Alcotest.(check int) "fingerprint" (Memory.fingerprint fresh)
    (Memory.fingerprint mem);
  for k = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "sym slice %d" k)
      (Memory.sym_part fresh k) (Memory.sym_part mem k)
  done;
  ignore (Memory.exec_read mem ~pid:2 a);
  Alcotest.(check int) "reader sets cleared" 1 (Memory.rmrs mem ~pid:2)

let reset_digests_resync () =
  let mem, a, b, c = reset_fixture () in
  let fresh, fa, fb, fc = reset_fixture () in
  Memory.reset mem;
  let writes mem a b c =
    ignore (Memory.exec_write mem ~pid:1 b 4);
    ignore (Memory.exec_faa mem ~pid:2 a 2);
    ignore (Memory.exec_cas mem ~pid:1 c ~expect:7 ~repl:8);
    (* back to its allocation value: touched, but contributes nothing *)
    ignore (Memory.exec_write mem ~pid:2 b 0)
  in
  writes mem a b c;
  writes fresh fa fb fc;
  ignore (Memory.exec_write mem ~pid:1 b 6);
  ignore (Memory.exec_write fresh ~pid:1 fb 6);
  Alcotest.(check int) "fingerprint = fingerprint_slow"
    (Memory.fingerprint_slow mem) (Memory.fingerprint mem);
  Alcotest.(check int) "fingerprint = a fresh memory's"
    (Memory.fingerprint fresh) (Memory.fingerprint mem);
  for k = 0 to 2 do
    Alcotest.(check int) (Printf.sprintf "sym slice %d" k)
      (Memory.sym_part fresh k) (Memory.sym_part mem k)
  done

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
      Bitset.nth enabled (Random.State.int rng (Bitset.cardinal enabled))
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
  o_counters : (string * int) list;
  o_samples : int list;
}

(* [histograms] are read as the samples each storm adds: they accumulate
   over a world's runs by design. *)
let storm_on ?(histograms = []) w ~seed =
  let mem = MC.memory w in
  let n = Memory.n mem in
  let samples () =
    List.map (fun k -> Stats.count (MC.histogram w k)) histograms
  in
  let before = samples () in
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
    o_counters = MC.counters w;
    o_samples = List.map2 ( - ) (samples ()) before;
  }

(* Runs [storms] seeded storms back to back on one world, each against
   the same storm on a fresh world; returns every field that differed. *)
let reuse_mismatches ?(storms = 8) ?histograms sc =
  let reused = MC.world sc in
  List.concat_map
    (fun seed ->
      let a = storm_on ?histograms (MC.world sc) ~seed
      and b = storm_on ?histograms reused ~seed in
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
          ("counters", a.o_counters = b.o_counters);
          ("histogram samples", a.o_samples = b.o_samples);
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
              let sc = Harness.Scenario.to_scenario (build p) in
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

(* Driver's composition: the overtaking monitor's verdict arrays and
   the passage statistics' restore-only epochs are restored by the
   world too. A missed epoch restore reclassifies the next run's first
   passages (recovery vs steady, leader vs follower), which moves the
   histogram samples. *)
let driver_monitors_reuse () =
  List.iter
    (fun (stack, model) ->
      let sc =
        Harness.Scenario.to_scenario
          (Harness.Scenario.v ~n:3 ~model
             ~workload:
               (Harness.Scenario.rme_passages ~passages:3 ~make:(fun mem ->
                    Rme.Stack.recoverable mem stack))
             ~monitors:
               [
                 Harness.Scenario.mutex_monitors ();
                 Harness.Scenario.lost_update_monitor ();
                 Harness.Scenario.overtaking ();
                 Harness.Scenario.passage_stats ();
               ])
      in
      match
        reuse_mismatches
          ~histograms:
            [
              "steady_rmrs"; "recovery_rmrs"; "leader_recovery_rmrs";
              "follower_recovery_rmrs"; "exit_steps";
            ]
          sc
      with
      | [] -> ()
      | ms ->
        Alcotest.failf "%s %a: %s" stack Memory.pp_model model
          (String.concat "; " ms))
    [ ("t3-mcs", Memory.Cc); ("t1-mcs", Memory.Dsm) ]

(* Negative control: a ref that steers control flow but is not declared
   survives the reset, so the reused world diverges — and declaring it
   is the whole fix. *)
let unregistered_ref_flagged () =
  let leaky ~declare =
    {
      MC.n = 2;
      model = Memory.Cc;
      build =
        (fun mem ~violation:_ ->
          let c = Memory.global mem ~name:"leak.c" 0 in
          let runs = ref 0 in
          ( (fun ~pid ~epoch:_ ->
              if pid = 1 then incr runs;
              for _ = 1 to !runs do
                Proc.write c pid
              done),
            if declare then
              [ { MC.nothing with d_restore_refs = [ ("runs", runs) ] } ]
            else [] ));
    }
  in
  Alcotest.(check bool) "undeclared ref flagged" true
    (reuse_mismatches (leaky ~declare:false) <> []);
  Alcotest.(check (list string)) "declared ref clean" []
    (reuse_mismatches (leaky ~declare:true))

(* --- the lost-update monitor --- *)

(* A lock whose sections do nothing: every passage races every other. *)
let no_lock _mem : Rme.Rme_intf.rme =
  {
    Rme.Rme_intf.name = "none";
    recover = (fun ~pid:_ ~epoch:_ -> ());
    enter = (fun ~pid:_ ~epoch:_ -> ());
    exit = (fun ~pid:_ ~epoch:_ -> ());
  }

(* Racing increments are lost whether or not crashes follow them: a
   crash forgives nothing that a store buffer did not hold. *)
let lost_updates_survive_crashes () =
  List.iter
    (fun every ->
      let r =
        Harness.Scenario.storm ~seed:1
          ~schedule:(Schedule.with_crashes ~every (Schedule.uniform ~seed:5))
          (Harness.Scenario.rme_lock ~passages:20 ~n:3 ~model:Memory.Cc
             ~make:no_lock ())
      in
      let c = Harness.Scenario.counter r in
      let what = Printf.sprintf "crash every %d" every in
      Alcotest.(check bool) (what ^ ": crashes happened") true
        (r.Harness.Scenario.st_crashes > 0);
      Alcotest.(check int) (what ^ ": lost update flagged") 1
        (c "lost-updates");
      Alcotest.(check int) (what ^ ": nothing forgiven") 0
        (c "forgiven-updates");
      Alcotest.(check bool) (what ^ ": increments were lost") true
        (c "protected-counter" < c "cs-completions"))
    [ 40; 20; 10 ]

(* The one increment a crash may take back: it sat in a store buffer. A
   lone process (so mutual exclusion holds) parks its first increment
   in its buffer and a crash discards the buffer before its next
   operation; the counter then trails the completions by exactly the
   forgiven increment. *)
let discarded_increment_forgiven () =
  let w =
    MC.world
      (Harness.Scenario.to_scenario
         (Harness.Scenario.rme_lock ~passages:2 ~n:1 ~model:Memory.Cc
            ~make:no_lock ()))
  in
  (* Delay p1's next write; its first step reads the counter, its second
     parks the increment and runs on to passage 2's read; then crash. *)
  let forced = [| MC.int_of_decision ~n:1 (MC.Delay_writes 1); 1; 1; 0 |] in
  let rp =
    MC.run_schedule_in w ~decide:(fun ~pos ~enabled:_ ~default ->
        if pos < Array.length forced then forced.(pos) else default)
  in
  let c = MC.counter w in
  Alcotest.(check int) "the crash was taken" 1 rp.MC.rp_crashes;
  Alcotest.(check (list string)) "no lost update" [] rp.MC.rp_violations;
  Alcotest.(check (list int)) "completions, counter, forgiven" [ 2; 1; 1 ]
    [ c "cs-completions"; c "protected-counter"; c "forgiven-updates" ]

(* A write still parked in a store buffer when the last process finishes
   is published before the finish checks read memory: a lone process
   whose increment is delayed completes its passage cleanly. *)
let parked_write_drained_before_finish () =
  let w =
    MC.world
      (Harness.Scenario.to_scenario
         (Harness.Scenario.rme_lock ~passages:1 ~n:1 ~model:Memory.Cc
            ~make:no_lock ()))
  in
  let delay = MC.int_of_decision ~n:1 (MC.Delay_writes 1) in
  let rp =
    MC.run_schedule_in w ~decide:(fun ~pos ~enabled:_ ~default ->
        if pos = 0 then delay else default)
  in
  let c = MC.counter w in
  Alcotest.(check (list string)) "no lost update" [] rp.MC.rp_violations;
  Alcotest.(check (list int)) "completions, counter" [ 1; 1 ]
    [ c "cs-completions"; c "protected-counter" ]

let () =
  Alcotest.run "scenario"
    [
      ( "encode",
        [
          case "mix-refs" mix_refs_matches_manual_chain;
          case "monitor-fold" derived_fold_matches_manual_chain;
        ] );
      ( "registry",
        [
          case "builtins" registry_has_builtins;
          case "duplicate-rejected" registry_rejects_duplicates;
        ] );
      ( "parity",
        [
          slow_case "rme-t1-violating" rme_pinned_violating;
          slow_case "rme-t3-clean" rme_pinned_clean;
          case "mutex" mutex_pinned;
          case "barrier" barrier_pinned;
          case "barrier-sub" barrier_sub_pinned;
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
      ( "lost-update",
        [
          case "survives-crashes" lost_updates_survive_crashes;
          case "discarded-forgiven" discarded_increment_forgiven;
          case "drained-before-finish" parked_write_drained_before_finish;
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
          case "read-only-readers" reset_clears_read_only_readers;
          case "back-to-back" reset_back_to_back;
          case "digests-resync" reset_digests_resync;
          case "runtime-reset" runtime_reset_restores;
          slow_case "matches-fresh" reuse_matches_fresh;
          case "driver-monitors" driver_monitors_reuse;
          case "unregistered-ref-flagged" unregistered_ref_flagged;
        ] );
    ]
