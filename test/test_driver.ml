(* Tests for the experiment driver itself: report bookkeeping, passage
   classification, monitor semantics (including deliberately broken locks
   that must trip each monitor), budgets, and determinism. *)

open Sim
open Testutil

let broken_lock _mem : Rme.Rme_intf.rme =
  {
    Rme.Rme_intf.name = "broken";
    recover = (fun ~pid:_ ~epoch:_ -> ());
    enter = (fun ~pid:_ ~epoch:_ -> ());
    exit = (fun ~pid:_ ~epoch:_ -> ());
  }

let run_broken ?(n = 3) ?(passages = 20) () =
  Harness.Driver.run ~n ~passages ~model:Memory.Cc ~make:broken_lock
    ~schedule:(Schedule.uniform ~seed:5) ()

(* --- report bookkeeping --- *)

let counts_are_consistent () =
  let r = run_stack ~model:Memory.Cc ~n:4 ~passages:25 "t1-mcs" in
  assert_clean "baseline" r;
  Alcotest.(check int) "per-process totals" (4 * 25)
    (Array.fold_left ( + ) 0 r.Harness.Driver.completed);
  Alcotest.(check int) "cs completions" (4 * 25) r.Harness.Driver.cs_completions;
  Alcotest.(check int) "counter" (4 * 25) r.Harness.Driver.counter_value;
  Alcotest.(check int) "no crashes requested" 0 r.Harness.Driver.crashes;
  Alcotest.(check bool) "steps counted" true (r.Harness.Driver.total_steps > 0);
  Alcotest.(check bool) "rmrs counted" true (r.Harness.Driver.total_rmrs > 0)

let passage_classification () =
  (* Without crashes: exactly one "recovery" (first-boot) passage per
     process; everything else steady. *)
  let n = 5 and passages = 12 in
  let r = run_stack ~model:Memory.Cc ~n ~passages "t1-mcs" in
  Alcotest.(check int) "boot passages" n
    (Stats.count r.Harness.Driver.recovery_rmrs);
  Alcotest.(check int) "steady passages"
    ((n * passages) - n)
    (Stats.count r.Harness.Driver.steady_rmrs)

let crashes_reclassify_passages () =
  let n = 4 in
  let r =
    run_stack ~model:Memory.Cc ~n ~passages:20 ~max_steps:2_000_000
      ~schedule:(Schedule.with_crashes ~every:400 (Schedule.uniform ~seed:2))
      "t1-mcs"
  in
  assert_clean "crashy" r;
  Alcotest.(check bool) "crashes happened" true (r.Harness.Driver.crashes > 0);
  Alcotest.(check bool)
    "recovery passages beyond boot" true
    (Stats.count r.Harness.Driver.recovery_rmrs > n)

let exit_steps_recorded () =
  let r = run_stack ~model:Memory.Cc ~n:3 ~passages:10 "t1-mcs" in
  Alcotest.(check int) "one sample per passage" 30
    (Stats.count r.Harness.Driver.exit_steps);
  Alcotest.(check bool) "exit takes steps" true
    (Stats.mean r.Harness.Driver.exit_steps >= 1.)

(* --- monitors trip on planted bugs --- *)

let me_monitor_trips () =
  let r = run_broken () in
  Alcotest.(check bool) "ME violations detected" true
    (r.Harness.Driver.me_violations > 0);
  Alcotest.(check bool) "lost updates detected" true
    (r.Harness.Driver.counter_value < r.Harness.Driver.cs_completions);
  match Harness.Driver.check_clean r with
  | Ok () -> Alcotest.fail "check_clean accepted a broken lock"
  | Error _ -> ()

let check_clean_detects_shortfall () =
  (* A wedging lock (unprotected MCS after a crash) fails the target. *)
  let r =
    run_stack ~model:Memory.Cc ~n:3 ~passages:50 ~max_steps:50_000
      ~schedule:(Schedule.with_crashes ~every:150 (Schedule.uniform ~seed:8))
      "unprotected-mcs"
  in
  (match Harness.Driver.check_clean r with
  | Ok () -> Alcotest.fail "expected a shortfall"
  | Error msg ->
    Alcotest.(check bool)
      "mentions completion" true
      (String.length msg > 0));
  Alcotest.(check bool) "not all done" false r.Harness.Driver.all_done

let max_steps_budget_is_respected () =
  let budget = 5_000 in
  let r =
    run_stack ~model:Memory.Cc ~n:3 ~passages:max_int ~max_steps:budget
      "t1-mcs"
  in
  Alcotest.(check bool)
    "stopped at the budget" true
    (r.Harness.Driver.total_steps <= budget + 1)

(* --- overtaking accounting --- *)

let no_overtaking_single_process () =
  let r = run_stack ~model:Memory.Cc ~n:1 ~passages:10 "t1-mcs" in
  Alcotest.(check int) "alone means never overtaken" 0
    r.Harness.Driver.max_overtaking

let overtaking_bounded_fifo () =
  let n = 6 in
  let r = run_stack ~model:Memory.Cc ~n ~passages:40 "t1-mcs" in
  Alcotest.(check bool)
    "some overtaking under contention" true
    (r.Harness.Driver.max_overtaking > 0);
  Alcotest.(check bool)
    "FIFO bound" true
    (r.Harness.Driver.max_overtaking <= (2 * n) + 2)

(* --- determinism --- *)

let reports_are_reproducible () =
  let snapshot () =
    let r =
      run_stack ~model:Memory.Dsm ~n:4 ~passages:15 ~max_steps:2_000_000
        ~schedule:(storm ~seed:33 ~mean:250 ())
        "t3-mcs"
    in
    ( r.Harness.Driver.total_steps,
      r.Harness.Driver.total_rmrs,
      r.Harness.Driver.crashes,
      r.Harness.Driver.csr_reentries,
      Stats.count r.Harness.Driver.steady_rmrs )
  in
  Alcotest.(check bool) "identical replays" true (snapshot () = snapshot ())

(* --- independent crashes through the driver --- *)

let crash_one_bookkeeping () =
  let r =
    run_stack ~model:Memory.Cc ~n:4 ~passages:30 ~max_steps:3_000_000
      ~schedule:
        (Schedule.with_individual_crashes ~seed:3 ~mean:700 ~n:4
           (Schedule.uniform ~seed:17))
      "rclh-fasas"
  in
  assert_clean "rclh under individual crashes" r;
  (* Individual crashes are not system-wide crash steps. *)
  Alcotest.(check int) "no epoch-advancing crashes" 0 r.Harness.Driver.crashes

(* --- rme-metrics/1 parity ---

   The full metrics file of a fixed set of seeded runs, compared byte for
   byte with [driver_metrics.expected]: every counter, every histogram
   bucket. The runs cover a FIFO stack, the FRF stack and a non-FIFO
   base lock on both cost models, each failure-free, under random
   system-wide crashes, and under a biased schedule with crashes (which
   drives overtaking), plus one run under independent crashes. *)

let parity_runs () =
  let uniform () = Schedule.uniform ~seed:7 in
  let schedules =
    [
      ("failure-free", uniform);
      ( "random-crashes",
        fun () -> Schedule.with_random_crashes ~seed:5 ~mean:120 (uniform ()) );
      ( "biased-crashes",
        fun () ->
          Schedule.with_random_crashes ~seed:9 ~mean:150
            (Schedule.geometric_bias ~seed:11 0.6) );
    ]
  in
  let runs =
    List.concat_map
      (fun stack ->
        List.concat_map
          (fun model ->
            List.map
              (fun (what, sched) -> (stack, model, what, sched))
              schedules)
          models)
      [ "t1-mcs"; "t3-mcs"; "t1-ya" ]
    @ [
        ( "t1-mcs",
          Memory.Cc,
          "individual-crashes",
          fun () ->
            Schedule.with_individual_crashes ~seed:13 ~mean:300 ~n:4
              (uniform ()) );
      ]
  in
  List.map
    (fun (stack, model, what, sched) ->
      let r =
        run_stack ~model ~n:4 ~passages:15 ~max_steps:200_000
          ~schedule:(sched ()) stack
      in
      Printf.sprintf "# %s %s %s\n%s" stack (model_tag model) what
        (Harness.Driver.metrics_json r))
    runs

(* On a mismatch the rendered file is left in [driver_metrics.actual]
   (in the test's build directory) for review with diff. *)
let metrics_parity () =
  let expected =
    In_channel.with_open_text (in_build "driver_metrics.expected")
      In_channel.input_all
  in
  let actual = String.concat "" (parity_runs ()) in
  if actual <> expected then begin
    Out_channel.with_open_text (in_build "driver_metrics.actual") (fun oc ->
        output_string oc actual);
    Alcotest.fail
      "rme-metrics/1 differs from driver_metrics.expected (see \
       driver_metrics.actual)"
  end

(* Minor words per step of a Driver run of t3-mcs at n=48 on CC (five
   passages each, 127,410 steps, the world's set-up included).
   Schedules read the runtime's runnable set in place, so a step
   allocates about what the effect suspension and the decision cost:
   8.5 words per step on OCaml 5.1.1. Building the list of runnable
   pids on every step cost ~144 more (152.4 words per step), which the
   bound fails. *)
let driver_words_per_step_bound = 20.

let driver_words_per_step () =
  let before = Gc.minor_words () in
  let r = run_stack ~model:Memory.Cc ~n:48 ~passages:5 ~seed:42 "t3-mcs" in
  let words = Gc.minor_words () -. before in
  let per_step = words /. float r.Harness.Driver.total_steps in
  if per_step > driver_words_per_step_bound then
    Alcotest.failf "%d steps allocated %.0f minor words (%.1f/step), bound %.0f"
      r.Harness.Driver.total_steps words per_step driver_words_per_step_bound

let () =
  Alcotest.run "driver"
    [
      ( "bookkeeping",
        [
          case "counts" counts_are_consistent;
          case "passage-classification" passage_classification;
          case "crash-reclassification" crashes_reclassify_passages;
          case "exit-steps" exit_steps_recorded;
        ] );
      ( "monitors",
        [
          case "me-trips" me_monitor_trips;
          case "shortfall" check_clean_detects_shortfall;
          case "budget" max_steps_budget_is_respected;
        ] );
      ( "overtaking",
        [
          case "single-process" no_overtaking_single_process;
          case "fifo-bounded" overtaking_bounded_fifo;
        ] );
      ("determinism", [ case "reproducible" reports_are_reproducible ]);
      ("independent", [ case "crash-one" crash_one_bookkeeping ]);
      ("parity", [ case "metrics-json" metrics_parity ]);
      ("allocation", [ case "words-per-step" driver_words_per_step ]);
    ]
