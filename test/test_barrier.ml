(* Tests for the paper's Section 3: the tag machinery (GetTag/SetTag), the
   known-leader barrier (Fig. 1), the unknown-leader barrier (Fig. 2), the
   O(1)-RMR claims of Theorems 3.2 and 3.3, and the broadcast ablation. *)

open Sim
open Testutil

(* Run [body] for n processes under [schedule] until everyone finishes (or
   the step budget runs out); returns whether everyone finished. *)
let run_bodies ?(max_steps = 200_000) ~model ~n ~schedule make_body =
  let mem = Memory.create ~model ~n in
  let body = make_body mem in
  let rt = Runtime.create mem ~body in
  Runtime.run ~max_steps rt schedule;
  Runtime.all_done rt

(* --- Tag machinery --- *)

(* Execute tag operations inside a single-process simulation. *)
let with_solo_tags ~n f =
  let mem = Memory.create ~model:Memory.Cc ~n in
  let tags = Rme.Tag.create mem ~name:"t" in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch:_ -> if pid = 1 then f tags)
  in
  while Runtime.runnable rt 1 do
    Runtime.step rt 1
  done

let tag_initial_epoch () =
  with_solo_tags ~n:2 (fun tags ->
      (* Fresh registers: E = [0; 0], so the first tag computed is 0. *)
      Alcotest.(check int) "initial get" 0 (Rme.Tag.get tags ~epoch:5 ~who:1);
      Alcotest.(check int) "first set" 0 (Rme.Tag.set tags ~epoch:5 ~pid:1))

let tag_idempotent_within_epoch () =
  with_solo_tags ~n:2 (fun tags ->
      let t1 = Rme.Tag.set tags ~epoch:3 ~pid:1 in
      let t2 = Rme.Tag.set tags ~epoch:3 ~pid:1 in
      let g = Rme.Tag.get tags ~epoch:3 ~who:1 in
      Alcotest.(check int) "set idempotent" t1 t2;
      Alcotest.(check int) "get matches set" t1 g)

let tag_toggles_across_epochs () =
  with_solo_tags ~n:2 (fun tags ->
      let a = Rme.Tag.set tags ~epoch:1 ~pid:1 in
      let b = Rme.Tag.set tags ~epoch:2 ~pid:1 in
      let c = Rme.Tag.set tags ~epoch:4 ~pid:1 in
      let d = Rme.Tag.set tags ~epoch:9 ~pid:1 in
      Alcotest.(check bool) "1->2 toggles" true (a <> b);
      Alcotest.(check bool) "2->4 toggles" true (b <> c);
      Alcotest.(check bool) "4->9 toggles" true (c <> d))

let tag_stale_announcement_detected () =
  (* The ABA defence: after p last SetTag'd in epoch e, the tag it
     announced then differs from the tag GetTag computes for any later
     epoch — so a stale <p, tag> left in C is always recognized. *)
  with_solo_tags ~n:2 (fun tags ->
      let announced = Rme.Tag.set tags ~epoch:7 ~pid:2 in
      let current = Rme.Tag.get tags ~epoch:8 ~who:2 in
      Alcotest.(check bool) "stale differs" true (announced <> current))

let tags_are_per_process () =
  with_solo_tags ~n:3 (fun tags ->
      let a = Rme.Tag.set tags ~epoch:1 ~pid:1 in
      ignore (Rme.Tag.set tags ~epoch:1 ~pid:2);
      ignore (Rme.Tag.set tags ~epoch:2 ~pid:2);
      Alcotest.(check int) "p1 unaffected by p2" a
        (Rme.Tag.get tags ~epoch:1 ~who:1))

(* --- Functional barrier behaviour --- *)

let barrier_all_pass ~model ~n ~leader ~schedule () =
  let returned = Array.make (n + 1) false in
  let leader_begun = ref false in
  let all_done =
    run_bodies ~model ~n ~schedule (fun mem ->
        let b = Rme.Barrier.create mem ~name:"b" in
        fun ~pid ~epoch ->
          if pid = leader then leader_begun := true;
          Rme.Barrier.enter b ~pid ~epoch ~leader:(pid = leader);
          Alcotest.(check bool)
            "no return before leader begins" true !leader_begun;
          returned.(pid) <- true)
  in
  Alcotest.(check bool) "everyone through" true all_done;
  for pid = 1 to n do
    Alcotest.(check bool) (Printf.sprintf "p%d returned" pid) true returned.(pid)
  done

let barrier_everyone_passes () =
  List.iter
    (fun model ->
      List.iter
        (fun leader ->
          barrier_all_pass ~model ~n:5 ~leader
            ~schedule:(Schedule.uniform ~seed:(17 + leader))
            ())
        [ 1; 3; 5 ])
    models

let barrier_leader_last () =
  (* Adversarial order: every non-leader reaches the barrier before the
     leader takes a single step. *)
  List.iter
    (fun model ->
      let n = 4 in
      let decisions =
        List.concat
          [
            List.concat_map
              (fun pid -> List.init 30 (fun _ -> Schedule.Step pid))
              [ 2; 3; 4 ];
            List.init 40 (fun _ -> Schedule.Step 1);
            List.concat
              (List.init 40 (fun _ -> Schedule.[ Step 2; Step 3; Step 4; Step 1 ]));
          ]
      in
      barrier_all_pass ~model ~n ~leader:1
        ~schedule:(Schedule.of_list decisions) ())
    models

let barrier_sub_everyone_passes () =
  List.iter
    (fun model ->
      List.iter
        (fun lid ->
          let n = 5 in
          let returned = Array.make (n + 1) false in
          let all_done =
            run_bodies ~model ~n ~schedule:(Schedule.uniform ~seed:23)
              (fun mem ->
                let b = Rme.Barrier_sub.create mem ~name:"bs" in
                fun ~pid ~epoch ->
                  Rme.Barrier_sub.enter b ~pid ~epoch ~lid;
                  returned.(pid) <- true)
          in
          Alcotest.(check bool) "all done" true all_done;
          for pid = 1 to n do
            Alcotest.(check bool) "returned" true returned.(pid)
          done)
        [ 1; 4 ])
    models

let barrier_reusable_across_epochs () =
  (* One barrier instance, crashes between rounds, a fresh leader each
     epoch: every attempted epoch lets its callers through. *)
  let n = 4 in
  let rounds = 6 in
  let passed = Array.make (rounds + 2) 0 in
  ignore
    (run_bodies ~model:Memory.Dsm ~n ~max_steps:100_000
       ~schedule:(Schedule.with_crashes ~every:120 (Schedule.uniform ~seed:3))
       (fun mem ->
         let b = Rme.Barrier.create mem ~name:"b" in
         let done_upto = Array.make (n + 1) 0 in
         fun ~pid ~epoch ->
           if epoch <= rounds && done_upto.(pid) < epoch then begin
             let leader = pid = 1 + (epoch mod n) in
             Rme.Barrier.enter b ~pid ~epoch ~leader;
             done_upto.(pid) <- epoch;
             passed.(epoch) <- passed.(epoch) + 1
           end));
  Alcotest.(check bool) "epoch 1 saw passes" true (passed.(1) > 0)

let barrier_reentrant_within_epoch () =
  (* Transformation 1 may call the barrier on every passage of an epoch;
     after the first completion, repeat calls must return via the fast
     path at O(1) cost. *)
  List.iter
    (fun model ->
      let n = 4 in
      let calls = 5 in
      let extra_rmrs = Array.make (n + 1) 0 in
      let all_done =
        run_bodies ~model ~n ~schedule:(Schedule.uniform ~seed:41) (fun mem ->
            let b = Rme.Barrier.create mem ~name:"b" in
            fun ~pid ~epoch ->
              Rme.Barrier.enter b ~pid ~epoch ~leader:(pid = 1);
              let r0 = Memory.rmrs mem ~pid in
              for _ = 2 to calls do
                Rme.Barrier.enter b ~pid ~epoch ~leader:(pid = 1)
              done;
              extra_rmrs.(pid) <- Memory.rmrs mem ~pid - r0)
      in
      Alcotest.(check bool) "completed" true all_done;
      for pid = 2 to n do
        (* Non-leader repeats: at most one re-read of R per call. *)
        if extra_rmrs.(pid) > calls then
          Alcotest.failf "%s: p%d paid %d RMRs for %d fast-path calls"
            (model_tag model) pid extra_rmrs.(pid) (calls - 1)
      done)
    models

(* --- RMR complexity (Theorems 3.2 and 3.3) --- *)

(* Max RMRs charged to any single process for one barrier passage, with all
   non-leaders arriving before the leader (worst case for signalling).
   Returns (leader cost, max over processes). *)
let worst_case_rmrs ~model ~n enter =
  let mem = Memory.create ~model ~n in
  let enter = enter mem in
  let cost = Array.make (n + 1) 0 in
  let body ~pid ~epoch =
    let r0 = Memory.rmrs mem ~pid in
    enter ~pid ~epoch;
    cost.(pid) <- Memory.rmrs mem ~pid - r0
  in
  let rt = Runtime.create mem ~body in
  let rec run_until_blocked pid =
    if Runtime.runnable rt pid && not (Runtime.blocked rt pid) then begin
      Runtime.step rt pid;
      run_until_blocked pid
    end
  in
  for pid = 2 to n do
    run_until_blocked pid
  done;
  run_until_blocked 1;
  (* Let the wake-up chain play out fairly. *)
  Runtime.run rt (Schedule.round_robin ());
  Alcotest.(check bool) "barrier completed" true (Runtime.all_done rt);
  (cost.(1), Array.fold_left max 0 cost)

let sub_enter mem =
  let b = Rme.Barrier_sub.create mem ~name:"bs" in
  fun ~pid ~epoch -> Rme.Barrier_sub.enter b ~pid ~epoch ~lid:1

let full_enter mem =
  let b = Rme.Barrier.create mem ~name:"b" in
  fun ~pid ~epoch -> Rme.Barrier.enter b ~pid ~epoch ~leader:(pid = 1)

let broadcast_enter mem =
  let b = Rme.Barrier_sub_broadcast.create mem ~name:"bb" in
  fun ~pid ~epoch -> Rme.Barrier_sub_broadcast.enter b ~pid ~epoch ~lid:1

let barrier_sub_constant_rmr_dsm () =
  let leader4, max4 = worst_case_rmrs ~model:Memory.Dsm ~n:4 sub_enter in
  let leader32, max32 = worst_case_rmrs ~model:Memory.Dsm ~n:32 sub_enter in
  if leader32 > leader4 + 1 then
    Alcotest.failf "BarrierSub leader RMRs grew: %d -> %d" leader4 leader32;
  if max32 > max4 + 1 || max32 > 8 then
    Alcotest.failf "BarrierSub max RMRs grew: %d -> %d" max4 max32

let barrier_constant_rmr_both_models () =
  List.iter
    (fun model ->
      let _, max8 = worst_case_rmrs ~model ~n:8 full_enter in
      let _, max48 = worst_case_rmrs ~model ~n:48 full_enter in
      if max48 > max8 + 1 || max48 > 14 then
        Alcotest.failf "Barrier %s max RMRs grew: %d (n=8) -> %d (n=48)"
          (model_tag model) max8 max48)
    models

let broadcast_ablation_leader_linear () =
  (* Identical worst case, but the leader signals every waiter itself: its
     RMR cost must grow linearly with the waiter count in the DSM model. *)
  let leader8, _ = worst_case_rmrs ~model:Memory.Dsm ~n:8 broadcast_enter in
  let leader32, _ = worst_case_rmrs ~model:Memory.Dsm ~n:32 broadcast_enter in
  if leader32 < leader8 + 16 then
    Alcotest.failf "broadcast leader cost should grow ~linearly: %d -> %d"
      leader8 leader32

let chain_vs_broadcast_leader () =
  let chain, _ = worst_case_rmrs ~model:Memory.Dsm ~n:24 sub_enter in
  let bcast, _ = worst_case_rmrs ~model:Memory.Dsm ~n:24 broadcast_enter in
  if chain >= bcast then
    Alcotest.failf "chain leader (%d RMRs) should beat broadcast (%d)" chain
      bcast

(* --- Model checking (Definition 3.1) --- *)

let mc_barrier () =
  List.iter
    (fun model ->
      let o =
        Harness.Model_check.explore ~divergence_bound:2
          (Harness.Scenarios.barrier ~n:3 ~model ())
      in
      if o.Harness.Model_check.violations <> [] then
        Alcotest.failf "barrier %s: %a" (model_tag model)
          Harness.Model_check.pp_outcome o)
    models

let mc_barrier_with_crashes () =
  List.iter
    (fun model ->
      let o =
        Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:2
          ~max_runs:150_000
          (Harness.Scenarios.barrier ~epochs:3 ~n:2 ~model ())
      in
      if o.Harness.Model_check.violations <> [] then
        Alcotest.failf "barrier+crash %s: %a" (model_tag model)
          Harness.Model_check.pp_outcome o)
    models

let mc_barrier_sub () =
  List.iter
    (fun lid ->
      let o =
        Harness.Model_check.explore ~divergence_bound:2
          (Harness.Scenarios.barrier_sub ~lid ~n:3 ~model:Memory.Dsm ())
      in
      if o.Harness.Model_check.violations <> [] then
        Alcotest.failf "barrier_sub lid=%d: %a" lid
          Harness.Model_check.pp_outcome o)
    [ 1; 2; 3 ]

let () =
  Alcotest.run "barrier"
    [
      ( "tag",
        [
          case "initial" tag_initial_epoch;
          case "idempotent" tag_idempotent_within_epoch;
          case "toggles" tag_toggles_across_epochs;
          case "stale-detected" tag_stale_announcement_detected;
          case "per-process" tags_are_per_process;
        ] );
      ( "behaviour",
        [
          case "everyone-passes" barrier_everyone_passes;
          case "leader-last" barrier_leader_last;
          case "sub-everyone-passes" barrier_sub_everyone_passes;
          case "reusable-epochs" barrier_reusable_across_epochs;
          case "reentrant-within-epoch" barrier_reentrant_within_epoch;
        ] );
      ( "rmr",
        [
          case "sub-constant-dsm" barrier_sub_constant_rmr_dsm;
          case "constant-both-models" barrier_constant_rmr_both_models;
          case "broadcast-ablation" broadcast_ablation_leader_linear;
          case "chain-vs-broadcast" chain_vs_broadcast_leader;
        ] );
      ( "model-check",
        [
          slow_case "spec-3.1" mc_barrier;
          slow_case "spec-3.1-crashes" mc_barrier_with_crashes;
          slow_case "sub-spec" mc_barrier_sub;
        ] );
    ]
