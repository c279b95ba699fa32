(* Tests for Section 4: Transformation 1 (ME -> RME, Theorems 4.1/4.8),
   Transformation 2 (CSR, Theorem 4.9), Transformation 3 (FRF, Theorem
   4.11), the published line-97 liveness race, the ablations, and the
   boundedness side-conditions (BE, BR). *)

open Sim
open Testutil

(* [protected_stacks], [csr_storm_roster] come from Testutil — shared
   with the native suite's storm gauntlet. *)

(* --- Safety and progress under crash storms --- *)

let storms_are_clean stack () =
  List.iter
    (fun model ->
      List.iter
        (fun seed ->
          let r =
            storm_stack ~model ~n:5 ~passages:40
              ~schedule:(storm ~seed ~mean:350 ())
              stack
          in
          assert_storm_clean
            (Printf.sprintf "%s %s seed=%d" stack (model_tag model) seed)
            r;
          if r.Harness.Scenario.st_crashes = 0 then
            Alcotest.failf "storm injected no crashes (seed %d)" seed)
        [ 1; 2; 3 ])
    models

let bursty_storms_are_clean () =
  (* Failures in rapid succession (footnote 1): epochs may also skip. *)
  List.iter
    (fun stack ->
      let r =
        storm_stack ~model:Memory.Dsm ~n:4 ~passages:30
          ~schedule:(storm ~bursty:true ~seed:77 ~mean:150 ())
          stack
      in
      assert_storm_clean (stack ^ " bursty") r)
    [ "t1-mcs"; "t3-mcs"; "jjj-cc"; "jjj-dsm" ]

let faulty_storms_are_clean () =
  (* The new injectable faults (DESIGN.md §5.16): lost wakeups on
     [B.await] and delayed-visibility windows on plain writes. The
     stacks must stay correct — a suppressed await is exactly a long
     spin miss, and a delayed write is a legal CC/DSM reordering the
     crash model already forces them to survive. *)
  List.iter
    (fun stack ->
      List.iter
        (fun seed ->
          let r =
            storm_stack ~model:Memory.Cc ~n:4 ~passages:25 ~seed
              ~lost_wakeup_mean:40 ~delay_mean:50
              ~schedule:(storm ~seed ~mean:300 ())
              stack
          in
          assert_storm_clean (Printf.sprintf "%s faulty seed=%d" stack seed) r)
        [ 1; 2 ])
    [ "t1-mcs"; "t3-mcs"; "jjj-cc"; "jjj-dsm" ]

let epoch_skipping_is_tolerated () =
  (* The model only promises monotone epochs (footnote 1: counters may
     lose increments when failures come fast) — run crashes that bump the
     epoch by 1..4 and require full correctness. *)
  List.iter
    (fun stack ->
      let mem = Memory.create ~model:Memory.Dsm ~n:4 in
      let lock = Rme.Stack.recoverable mem stack in
      let counter = Memory.global mem ~name:"c" 0 in
      let completed = Array.make 5 0 in
      let occupant = ref 0 in
      let body ~pid ~epoch =
        while completed.(pid) < 25 do
          lock.Rme.Rme_intf.recover ~pid ~epoch;
          lock.Rme.Rme_intf.enter ~pid ~epoch;
          if !occupant <> 0 then Alcotest.failf "%s: exclusion broken" stack;
          occupant := pid;
          Proc.write counter (Proc.read counter + 1);
          occupant := 0;
          lock.Rme.Rme_intf.exit ~pid ~epoch;
          completed.(pid) <- completed.(pid) + 1
        done
      in
      let rt = Runtime.create mem ~body in
      Runtime.on_crash rt (fun ~epoch:_ -> occupant := 0);
      let rng = Random.State.make [| 99 |] in
      let rec loop () =
        if Runtime.clock rt < 2_000_000 then begin
          match Runtime.enabled rt with
          | [] -> ()
          | en ->
            if Random.State.int rng 200 = 0 then
              Runtime.crash rt ~bump:(1 + Random.State.int rng 4) ()
            else begin
              Runtime.step rt (List.nth en (Random.State.int rng (List.length en)));
              ()
            end;
            loop ()
        end
      in
      loop ();
      Alcotest.(check bool)
        (stack ^ " finished despite skipped epochs")
        true
        (Array.for_all (fun c -> c >= 25) (Array.sub completed 1 4));
      Alcotest.(check bool)
        (stack ^ " epochs actually skipped")
        true
        (Runtime.epoch rt > Runtime.crashes rt + 1))
    [ "t1-mcs"; "t3-mcs" ]

let large_n_sanity () =
  (* Above 62 processes the CC reader bitsets span multiple words; run the
     full stack there to exercise that path end-to-end. *)
  let r =
    run_stack ~model:Memory.Cc ~n:70 ~passages:5 ~max_steps:10_000_000
      ~schedule:(Schedule.with_crashes ~every:20_000 (Schedule.uniform ~seed:6))
      "t3-mcs"
  in
  assert_clean "t3-mcs n=70" r;
  (* O(1): even at n=70 the steady max stays a small constant. *)
  if Stats.max_int r.Harness.Driver.steady_rmrs > 28 then
    Alcotest.failf "steady max RMR %d too large at n=70"
      (Stats.max_int r.Harness.Driver.steady_rmrs)

let single_process_stacks () =
  List.iter
    (fun model ->
      List.iter
        (fun stack ->
          let r =
            storm_stack ~model ~n:1 ~passages:20 ~max_steps:1_000_000
              ~schedule:(storm ~seed:5 ~mean:60 ())
              stack
          in
          assert_storm_clean (stack ^ " n=1") r)
        protected_stacks)
    models

(* --- CSR: Transformation 2 provides it, Transformation 1 does not --- *)

let t1_lacks_csr () =
  (* Model checking finds a CSR counterexample for the bare T1 stack. *)
  let sc =
    Harness.Scenarios.rme ~n:3 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t1-mcs")
      ()
  in
  let o =
    Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:1
      ~stop_on_first:true sc
  in
  let found_csr =
    List.exists
      (fun v -> String.length v >= 3 && String.sub v 0 3 = "CSR")
      o.Harness.Model_check.violations
  in
  Alcotest.(check bool) "CSR counterexample found for T1" true found_csr

let t2_t3_provide_csr () =
  List.iter
    (fun stack ->
      List.iter
        (fun model ->
          let sc =
            Harness.Scenarios.rme ~n:2 ~model
              ~make:(fun mem -> Rme.Stack.recoverable mem stack)
              ()
          in
          let o =
            Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1 sc
          in
          if o.Harness.Model_check.violations <> [] then
            Alcotest.failf "%s %s: %a" stack (model_tag model)
              Harness.Model_check.pp_outcome o)
        models)
    csr_storm_roster

let csr_under_storms () =
  (* Statistically: storms crash processes inside the CS; T2/T3 must never
     let anyone overtake the fallen owner, and re-entries must happen. *)
  List.iter
    (fun stack ->
      let total_reentries = ref 0 in
      List.iter
        (fun seed ->
          let r =
            storm_stack ~model:Memory.Cc ~n:5 ~passages:50
              ~schedule:(storm ~seed ~mean:250 ())
              stack
          in
          assert_storm_clean (stack ^ " csr storm") r;
          Alcotest.(check int)
            (Printf.sprintf "%s zero CSR violations (seed %d)" stack seed)
            0
            (Harness.Scenario.counter r "csr-violations");
          total_reentries :=
            !total_reentries + Harness.Scenario.counter r "csr-reentries")
        [ 1; 2; 3; 4 ];
      if !total_reentries = 0 then
        Alcotest.fail "storms never exercised CS re-entry")
    csr_storm_roster

let t1_csr_violations_do_happen () =
  (* The complementary observation: with enough storm seeds the bare T1
     stack is caught letting someone into the CS past a fallen owner. *)
  let violated =
    List.exists
      (fun seed ->
        let r =
          storm_stack ~model:Memory.Cc ~n:5 ~passages:50
            ~schedule:(storm ~seed ~mean:250 ())
            "t1-mcs"
        in
        Harness.Scenario.counter r "csr-violations" > 0)
      [ 1; 2; 3; 4; 5; 6 ]
  in
  Alcotest.(check bool) "T1 violates CSR somewhere" true violated

(* --- The published line-97 liveness race --- *)

let literal_line97_wedges () =
  let sc =
    Harness.Scenarios.rme ~n:3 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t3-mcs-literal")
      ()
  in
  let o =
    Harness.Model_check.explore ~divergence_bound:2 ~stop_on_first:true sc
  in
  Alcotest.(check bool)
    "deadlock found in the published pseudo-code" true
    (o.Harness.Model_check.deadlocks > 0)

let fixed_line97_does_not_wedge () =
  let sc =
    Harness.Scenarios.rme ~n:3 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t3-mcs")
      ()
  in
  let o = Harness.Model_check.explore ~divergence_bound:2 sc in
  if o.Harness.Model_check.violations <> [] then
    Alcotest.failf "fixed T3: %a" Harness.Model_check.pp_outcome o

(* --- FRF: Transformation 3 bounds overtaking under endless failures --- *)

let frf_run stack seed =
  run_stack ~model:Memory.Cc ~n:5 ~passages:200 ~max_steps:1_500_000
    ~schedule:
      (Schedule.with_random_crashes ~seed ~mean:600
         (Schedule.geometric_bias ~seed:(seed + 100) 0.55))
    stack

let t3_bounds_overtaking () =
  List.iter
    (fun seed ->
      let t3 = frf_run "t3-mcs" seed in
      let n = 5 in
      (* FRF: once waiting, a process is privileged within <= n helping
         rounds; each round admits a bounded burst of entries. *)
      if t3.Harness.Driver.max_overtaking > 8 * n * n then
        Alcotest.failf "t3 overtaking %d too large (seed %d)"
          t3.Harness.Driver.max_overtaking seed)
    [ 1; 2; 3 ]

let t3_fairer_than_t2 () =
  (* Aggregate across seeds: the helping mechanism must reduce worst-case
     overtaking substantially on the same biased, crashy schedules. *)
  let total stack =
    List.fold_left
      (fun acc seed -> acc + (frf_run stack seed).Harness.Driver.max_overtaking)
      0 [ 1; 2; 3; 4 ]
  in
  let t2 = total "t2-mcs" and t3 = total "t3-mcs" in
  if t3 >= t2 then
    Alcotest.failf "expected T3 fairer: t2 overtaking=%d t3 overtaking=%d" t2 t3

(* --- Footnote 3: FRF without CSR --- *)

let frf_only_is_fair_but_not_csr () =
  (* The variant the paper's footnote 3 sketches: the helping mechanism
     applied directly to a Transformation-1 mutex. It must bound
     overtaking under the endless-crash adversary like T3 does... *)
  let r budget =
    Harness.Driver.run ~n:5 ~passages:max_int ~max_steps:budget
      ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "frf-mcs")
      ~schedule:
        (Schedule.with_random_crashes ~seed:1 ~mean:300
           (Schedule.geometric_bias ~seed:101 0.8))
      ()
  in
  let short = r 250_000 and long = r 1_000_000 in
  Alcotest.(check int) "safe" 0 long.Harness.Driver.me_violations;
  if long.Harness.Driver.max_overtaking > short.Harness.Driver.max_overtaking + 50
  then
    Alcotest.failf "overtaking grew with run length: %d -> %d"
      short.Harness.Driver.max_overtaking long.Harness.Driver.max_overtaking;
  (* ...while a CSR counterexample exists (it never claimed CSR). *)
  let o =
    Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:1
      ~stop_on_first:true
      (Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
         ~make:(fun mem -> Rme.Stack.recoverable mem "frf-mcs")
         ())
  in
  Alcotest.(check bool)
    "CSR counterexample found" true
    (List.exists
       (fun v -> String.length v >= 3 && String.sub v 0 3 = "CSR")
       o.Harness.Model_check.violations)

let frf_only_model_checked () =
  let o =
    Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:2
      ~max_runs:400_000
      (Harness.Scenarios.rme ~check_csr:false ~n:2 ~model:Memory.Cc
         ~make:(fun mem -> Rme.Stack.recoverable mem "frf-mcs")
         ())
  in
  if o.Harness.Model_check.violations <> [] then
    Alcotest.failf "frf-mcs: %a" Harness.Model_check.pp_outcome o

let frf_only_storms () =
  List.iter
    (fun model ->
      let r =
        storm_stack ~model ~n:5 ~passages:40
          ~schedule:(storm ~seed:21 ~mean:300 ())
          "frf-mcs"
      in
      assert_storm_clean ("frf-mcs " ^ model_tag model) r)
    models

(* --- Weak starvation freedom (Theorem 4.8) --- *)

let weak_starvation_freedom () =
  (* Process 1 stops participating for good after the first crash — without
     recovering, which weak fairness permits. The others must still make
     progress (they do: T1's recovery leader election never depends on a
     specific process). *)
  let model = Memory.Dsm in
  let n = 4 in
  let mem = Memory.create ~model ~n in
  let lock = Rme.Stack.t1_mcs mem in
  let completed = Array.make (n + 1) 0 in
  let target = 30 in
  let body ~pid ~epoch =
    if pid = 1 && epoch > 1 then () (* dropped out *)
    else
      while completed.(pid) < target do
        lock.Rme.Rme_intf.recover ~pid ~epoch;
        lock.Rme.Rme_intf.enter ~pid ~epoch;
        completed.(pid) <- completed.(pid) + 1;
        lock.Rme.Rme_intf.exit ~pid ~epoch
      done
  in
  Runtime.run ~max_steps:1_000_000 (Runtime.create mem ~body)
    (Schedule.with_crashes ~every:300 (Schedule.uniform ~seed:9));
  for pid = 2 to n do
    Alcotest.(check int)
      (Printf.sprintf "p%d finished despite p1 dropping out" pid)
      target completed.(pid)
  done

(* --- RMR complexity (Theorem 4.1) --- *)

let steady stack ~model ~n =
  let r = run_stack ~model ~n ~passages:60 ~seed:2 stack in
  assert_clean (stack ^ " steady run") r;
  r

let t1_mcs_constant_rmr () =
  List.iter
    (fun model ->
      let at4 = Stats.max_int (steady "t1-mcs" ~model ~n:4).steady_rmrs in
      let at32 = Stats.max_int (steady "t1-mcs" ~model ~n:32).steady_rmrs in
      if at32 > at4 + 2 || at32 > 16 then
        Alcotest.failf "t1-mcs %s: steady max RMR %d (n=4) -> %d (n=32)"
          (model_tag model) at4 at32)
    models

let full_stack_constant_rmr () =
  List.iter
    (fun model ->
      let at4 = Stats.max_int (steady "t3-mcs" ~model ~n:4).steady_rmrs in
      let at32 = Stats.max_int (steady "t3-mcs" ~model ~n:32).steady_rmrs in
      if at32 > at4 + 3 || at32 > 28 then
        Alcotest.failf "t3-mcs %s: steady max RMR %d (n=4) -> %d (n=32)"
          (model_tag model) at4 at32)
    models

let t1_ya_grows () =
  let at4 = Stats.mean (steady "t1-ya" ~model:Memory.Dsm ~n:4).steady_rmrs in
  let at32 = Stats.mean (steady "t1-ya" ~model:Memory.Dsm ~n:32).steady_rmrs in
  if at32 <= at4 then
    Alcotest.failf "t1-ya should grow logarithmically: %.1f -> %.1f" at4 at32

let jjj_constant_rmr () =
  (* The successor locks (DESIGN.md §5.18): steady-state passages are
     O(1) RMRs in both models, with smaller constants than T1(MCS) —
     E16 gates the full 1..48 sweep; this is the quick tier-1 pin. *)
  List.iter
    (fun stack ->
      List.iter
        (fun model ->
          let at4 = Stats.max_int (steady stack ~model ~n:4).steady_rmrs in
          let at32 = Stats.max_int (steady stack ~model ~n:32).steady_rmrs in
          if at32 > at4 + 2 || at32 > 12 then
            Alcotest.failf "%s %s: steady max RMR %d (n=4) -> %d (n=32)" stack
              (model_tag model) at4 at32)
        models)
    [ "jjj-cc"; "jjj-dsm" ]

let recovery_passage_constant_rmr () =
  (* One crash mid-run; the recovery passages of T1(MCS) stay O(1) while
     T1(YA) pays the Θ(N log N) reset. *)
  let recovery stack n =
    let r =
      run_stack ~model:Memory.Dsm ~n ~passages:10 ~max_steps:8_000_000
        ~schedule:
          (Schedule.with_crashes ~every:60_000 (Schedule.uniform ~seed:31))
        stack
    in
    assert_clean (stack ^ " recovery run") r;
    Stats.max_int r.Harness.Driver.recovery_rmrs
  in
  let mcs8 = recovery "t1-mcs" 8 in
  let mcs32 = recovery "t1-mcs" 32 in
  if mcs32 > mcs8 + 4 || mcs32 > 24 then
    Alcotest.failf "t1-mcs recovery RMRs grew: %d -> %d" mcs8 mcs32;
  let ya32 = recovery "t1-ya" 32 in
  if ya32 <= 2 * mcs32 then
    Alcotest.failf "t1-ya recovery (%d) should dwarf t1-mcs (%d): tree reset"
      ya32 mcs32

(* --- Boundedness side-conditions --- *)

let bounded_exit_failure_free () =
  List.iter
    (fun (stack, bound) ->
      let r = steady stack ~model:Memory.Cc ~n:8 in
      let m = Stats.max_int r.Harness.Driver.exit_steps in
      if m > bound then
        Alcotest.failf "%s exit took %d steps (bound %d)" stack m bound)
    [ ("t1-mcs", 6); ("t2-mcs", 10); ("t3-mcs", 10) ]

let bounded_recovery_steady_state () =
  (* In passages where C already holds the epoch, recovery is a handful of
     reads (Section 4.1 / 4.2 discussion). *)
  List.iter
    (fun (stack, bound) ->
      let r = steady stack ~model:Memory.Cc ~n:8 in
      let m = Stats.max_int r.Harness.Driver.steady_recover_steps in
      if m > bound then
        Alcotest.failf "%s steady recovery took %d steps (bound %d)" stack m
          bound)
    [ ("t1-mcs", 3); ("t2-mcs", 8); ("t3-mcs", 10) ]

(* --- Ablations --- *)

let spin_gate_costs_in_dsm () =
  (* Replace the barrier with a global spin: recovering non-leaders pay one
     remote reference per re-check for as long as the reset runs. Use T1
     over Yang-Anderson, whose Θ(N log N)-write reset gives the spinners
     time to burn, and compare against the barrier-gated version, whose
     waiters spin locally. *)
  let recovery stack =
    let r =
      run_stack ~model:Memory.Dsm ~n:16 ~passages:10 ~max_steps:8_000_000
        ~schedule:
          (Schedule.with_crashes ~every:40_000 (Schedule.round_robin ()))
        stack
    in
    assert_clean (stack ^ " ablation run") r;
    Stats.mean r.Harness.Driver.recovery_recover_section_rmrs
  in
  (* The max is dominated by the leader's reset in both variants; the mean
     exposes the waiters, who spin remotely only in the ablation. *)
  let spin = recovery "t1spin-ya" and barrier = recovery "t1-ya" in
  if spin <= 2. *. barrier then
    Alcotest.failf
      "global-spin recovery (%.1f RMRs) should exceed barrier recovery (%.1f)"
      spin barrier

let nofast_variants_still_correct () =
  List.iter
    (fun stack ->
      let r =
        storm_stack ~model:Memory.Dsm ~n:4 ~passages:30
          ~schedule:(storm ~seed:13 ~mean:300 ())
          stack
      in
      assert_storm_clean (stack ^ " nofast") r)
    [ "t1-mcs-nofast"; "t3-mcs-nofast" ]

let nofast_costs_more () =
  let mean stack =
    Stats.mean (steady stack ~model:Memory.Dsm ~n:8).steady_rmrs
  in
  (* Without the fast path every steady passage re-runs the election
     machinery; with it, recovery is a single read. *)
  if mean "t1-mcs-nofast" <= mean "t1-mcs" then
    Alcotest.fail "fast path should reduce steady-state RMRs"

(* --- Failure-model separation (the paper's question (ii)) --- *)

let independent_failures_wedge_the_stacks () =
  (* Under single-process crashes the epoch never changes, so the recovery
     machinery never runs: the stacks stay safe but lose liveness. Both
     halves matter: safety must hold, and the wedge must actually occur
     (it is the reason the paper's O(1) bound needs system-wide failures). *)
  List.iter
    (fun stack ->
      let wedged = ref 0 in
      List.iter
        (fun seed ->
          let r =
            storm_stack ~model:Memory.Cc ~n:5 ~passages:40 ~max_steps:400_000
              ~schedule:
                (Schedule.with_individual_crashes ~seed ~mean:400 ~n:5
                   (Schedule.uniform ~seed:(seed * 3)))
              stack
          in
          Alcotest.(check int) (stack ^ " stays safe") 0
            (Harness.Scenario.counter r "me-violations");
          Alcotest.(check int)
            (stack ^ " no lost updates")
            0
            (Harness.Scenario.counter r "lost-updates");
          if not r.Harness.Scenario.st_all_done then incr wedged)
        [ 1; 2; 3 ];
      if !wedged = 0 then
        Alcotest.failf
          "%s unexpectedly survived independent failures — the separation \
           result should make it wedge"
          stack)
    [ "t1-mcs"; "t3-mcs" ]

let crash_one_restarts_only_victim () =
  let mem = Memory.create ~model:Memory.Cc ~n:2 in
  let c = Memory.global mem ~name:"x" 0 in
  let starts = Array.make 3 0 in
  let rt =
    Runtime.create mem ~body:(fun ~pid ~epoch:_ ->
        starts.(pid) <- starts.(pid) + 1;
        Proc.write c (Proc.read c + pid);
        Proc.write c (Proc.read c + pid))
  in
  Runtime.step rt 1;
  Runtime.step rt 1;
  Runtime.step rt 2;
  Runtime.crash_one rt 1;
  Alcotest.(check int) "epoch unchanged" 1 (Runtime.epoch rt);
  Alcotest.(check bool) "p1 runnable again" true (Runtime.runnable rt 1);
  while Runtime.runnable rt 1 do
    Runtime.step rt 1
  done;
  while Runtime.runnable rt 2 do
    Runtime.step rt 2
  done;
  Alcotest.(check int) "p1 restarted once" 2 starts.(1);
  Alcotest.(check int) "p2 never restarted" 1 starts.(2)

(* --- Model checking of the full stacks --- *)

let mc_stacks_with_crashes () =
  List.iter
    (fun (stack, check_csr) ->
      List.iter
        (fun model ->
          let sc =
            Harness.Scenarios.rme ~check_csr ~n:2 ~model
              ~make:(fun mem -> Rme.Stack.recoverable mem stack)
              ()
          in
          let o =
            Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:2
              ~max_runs:120_000 sc
          in
          if o.Harness.Model_check.violations <> [] then
            Alcotest.failf "%s %s: %a" stack (model_tag model)
              Harness.Model_check.pp_outcome o)
        models)
    [
      ("t1-mcs", false);
      ("t2-mcs", true);
      ("t3-mcs", true);
      ("jjj-cc", false);
      ("jjj-dsm", false);
    ]

let mc_two_passages () =
  let sc =
    Harness.Scenarios.rme ~passages:2 ~n:2 ~model:Memory.Dsm
      ~make:(fun mem -> Rme.Stack.recoverable mem "t3-mcs")
      ()
  in
  let o =
    Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1
      ~max_runs:120_000 sc
  in
  if o.Harness.Model_check.violations <> [] then
    Alcotest.failf "t3 two passages: %a" Harness.Model_check.pp_outcome o

let () =
  Alcotest.run "transforms"
    [
      ( "storms",
        List.map
          (fun stack -> slow_case ("storm-" ^ stack) (storms_are_clean stack))
          protected_stacks
        @ [
            case "bursty" bursty_storms_are_clean;
            slow_case "faulty" faulty_storms_are_clean;
            case "epoch-skipping" epoch_skipping_is_tolerated;
            case "large-n" large_n_sanity;
            case "single-process" single_process_stacks;
          ] );
      ( "csr",
        [
          slow_case "t1-lacks-csr" t1_lacks_csr;
          slow_case "t2-t3-provide-csr" t2_t3_provide_csr;
          slow_case "csr-under-storms" csr_under_storms;
          slow_case "t1-violations-happen" t1_csr_violations_do_happen;
        ] );
      ( "line-97",
        [
          case "literal-wedges" literal_line97_wedges;
          slow_case "fixed-does-not" fixed_line97_does_not_wedge;
        ] );
      ( "frf",
        [
          slow_case "t3-bounded-overtaking" t3_bounds_overtaking;
          slow_case "t3-fairer-than-t2" t3_fairer_than_t2;
          slow_case "footnote3-frf-only" frf_only_is_fair_but_not_csr;
          slow_case "footnote3-model-checked" frf_only_model_checked;
          case "footnote3-storms" frf_only_storms;
        ] );
      ("weak-sf", [ case "dropouts-dont-block" weak_starvation_freedom ]);
      ( "rmr",
        [
          case "t1-mcs-constant" t1_mcs_constant_rmr;
          case "t3-constant" full_stack_constant_rmr;
          case "t1-ya-grows" t1_ya_grows;
          case "jjj-constant" jjj_constant_rmr;
          case "recovery-constant" recovery_passage_constant_rmr;
        ] );
      ( "boundedness",
        [
          case "bounded-exit" bounded_exit_failure_free;
          case "bounded-recovery" bounded_recovery_steady_state;
        ] );
      ( "ablations",
        [
          case "spin-gate-dsm" spin_gate_costs_in_dsm;
          case "nofast-correct" nofast_variants_still_correct;
          case "nofast-costs" nofast_costs_more;
        ] );
      ( "failure-model",
        [
          case "independent-failures-wedge" independent_failures_wedge_the_stacks;
          case "crash-one-is-local" crash_one_restarts_only_victim;
        ] );
      ( "model-check",
        [
          slow_case "stacks-with-crashes" mc_stacks_with_crashes;
          slow_case "two-passages" mc_two_passages;
        ] );
    ]
