(* Shared helpers for the test suites. *)

open Sim

let conventional_as_rme name mem =
  Rme.Rme_intf.of_mutex (Rme.Stack.conventional mem name)

(* Run a conventional lock failure-free and return the driver report. *)
let run_conventional ?(n = 4) ?(passages = 50) ?(seed = 11) ?schedule
    ~model name =
  let schedule =
    match schedule with Some s -> s | None -> Schedule.uniform ~seed
  in
  Harness.Driver.run ~n ~passages ~model ~make:(conventional_as_rme name)
    ~schedule ()

let run_stack ?(n = 4) ?(passages = 50) ?(seed = 11) ?max_steps ?schedule
    ~model name =
  let schedule =
    match schedule with Some s -> s | None -> Schedule.uniform ~seed
  in
  Harness.Driver.run ?max_steps ~n ~passages ~model
    ~make:(fun mem -> Rme.Stack.recoverable mem name)
    ~schedule ()

let assert_clean what (r : Harness.Driver.report) =
  match Harness.Driver.check_clean r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s (%a)" what e Harness.Driver.pp_report r

(* Shared storm rosters: the full protected stacks every storm gauntlet
   exercises (simulated suites via [storm_stack], the native suite via
   Rme_native.Workers.run) and the CSR-providing subset whose storms
   additionally pin zero CSR violations. One definition so a new stack
   joins every gauntlet by being added here. *)
let protected_stacks =
  [ "t1-mcs"; "t2-mcs"; "t3-mcs"; "t1-ya"; "t1-ticket"; "jjj-cc"; "jjj-dsm" ]

let storm_roster = protected_stacks @ [ "frf-mcs" ]
let csr_storm_roster = [ "t2-mcs"; "t3-mcs" ]

(* Crash-storm schedule used across suites. *)
let storm ?(bursty = true) ~seed ~mean () =
  Schedule.with_random_crashes ~seed ~mean ~bursty (Schedule.uniform ~seed:(seed * 31 + 7))

(* Crash-storm run of a registry stack through the {!Harness.Scenario}
   builder — the exact monitors E8/E9/E12 check, not a parallel
   implementation (DESIGN.md §5.16). [seed] feeds only the optional
   fault injection (lost wakeups, delayed-visibility windows); the
   interleaving and the crashes come from [schedule]. *)
let storm_stack ?(n = 4) ?(passages = 50) ?(seed = 11) ?(max_steps = 4_000_000)
    ?lost_wakeup_mean ?delay_mean ~schedule ~model name =
  Harness.Scenario.storm ~max_steps ?lost_wakeup_mean ?delay_mean ~seed
    ~schedule
    (Harness.Scenario.rme_lock ~passages ~n ~model
       ~make:(fun mem -> Rme.Stack.recoverable mem name)
       ())

(* The storm-report form of {!Harness.Driver.check_clean} (both read
   the same Scenario monitors): mutual exclusion, lost updates and
   completion — NOT CSR, which T1 lacks by design (the CSR suites assert
   on the ["csr-violations"] counter explicitly). *)
let assert_storm_clean what (r : Harness.Scenario.storm_report) =
  let c = Harness.Scenario.counter r in
  if c "me-violations" > 0 then
    Alcotest.failf "%s: %d mutual-exclusion violations" what
      (c "me-violations");
  if c "lost-updates" > 0 then
    (match
       List.find_opt
         (fun v -> String.length v >= 4 && String.sub v 0 4 = "lost")
         r.Harness.Scenario.st_violations
     with
    | Some v -> Alcotest.failf "%s: %s" what v
    | None -> Alcotest.failf "%s: lost updates" what);
  if not r.Harness.Scenario.st_all_done then
    Alcotest.failf "%s: storm wedged (deadlock or step cap)" what

(* [f] next to this test executable in the build tree, where dune puts
   the suites' declared dependencies (expectation files, the CLI, the
   baselines), so a suite finds them from any working directory. *)
let in_build f = Filename.concat (Filename.dirname Sys.executable_name) f

let case name f = Alcotest.test_case name `Quick f
let slow_case name f = Alcotest.test_case name `Slow f

let models = [ Memory.Cc; Memory.Dsm ]

let model_tag = function Memory.Cc -> "cc" | Memory.Dsm -> "dsm"
