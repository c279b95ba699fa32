(* Golden step-level regression: the exact shared-memory trace of the
   first-boot recovery + one passage of T1(MCS) for two processes under
   round-robin scheduling in the DSM model. The simulation is fully
   deterministic, so any drift here means the algorithm's step-level
   behaviour (or the cost accounting) changed — which must be a conscious
   decision, not an accident.

   The trace reads as a walkthrough of the paper: both processes find
   C = 0 < epoch (line 63); p1 wins the leader CAS (line 64), resets MCS
   (tail := 0, line 66), publishes C := 1 (line 67) and enters the barrier
   as leader while p2 loses the CAS (observing -1, recovery in progress)
   and enters as non-leader; on the DSM slow path both set their tags
   (lines 33-40/59-61), p2 wins the secondary-leader election (line 54,
   CAS observing ⊥) and parks on its local spin flag S[2] until p1 — who
   loses the election, observing ⟨2,0⟩ = 4 (line 49) — opens R and signals
   it (line 52); both then meet at the secondary barrier (line 58), whose
   leader is p2. *)

open Sim

(* (pid, op, cell, result, charged-as-RMR) *)
let expected_prefix =
  [
    (1, "read", "t1(mcs).C", 0, false);
    (2, "read", "t1(mcs).C", 0, true);
    (1, "cas", "t1(mcs).C", 0, false);
    (2, "cas", "t1(mcs).C", -1, true);
    (1, "write", "mcs.tail", 0, false);
    (2, "read", "t1(mcs).bar.R", 0, true);
    (1, "write", "t1(mcs).C", 1, false);
    (2, "read", "t1(mcs).bar.C", 0, true);
    (1, "read", "t1(mcs).bar.R", 0, false);
    (2, "read", "t1(mcs).bar.tags.E[2][0]", 0, false);
    (1, "read", "t1(mcs).bar.C", 0, false);
    (2, "read", "t1(mcs).bar.tags.E[2][1]", 0, false);
    (1, "read", "t1(mcs).bar.tags.E[1][0]", 0, false);
    (2, "write", "t1(mcs).bar.tags.E[2][0]", 1, false);
    (1, "read", "t1(mcs).bar.tags.E[1][1]", 0, false);
    (2, "cas", "t1(mcs).bar.C", 0, true);
    (1, "write", "t1(mcs).bar.tags.E[1][0]", 1, false);
    (2, "read", "t1(mcs).bar.S[2]", 0, false);
    (1, "write", "t1(mcs).bar.R", 1, false);
    (2, "read", "t1(mcs).bar.S[2]", 0, false);
    (1, "cas", "t1(mcs).bar.C", 4, false);
    (2, "read", "t1(mcs).bar.S[2]", 0, false);
    (1, "write", "t1(mcs).bar.S[2]", 1, true);
    (2, "read", "t1(mcs).bar.S[2]", 1, false);
    (1, "read", "t1(mcs).bar.sub.R", 0, false);
    (2, "read", "t1(mcs).bar.sub.R", 0, true);
    (1, "read", "t1(mcs).bar.sub.C[2][1]", 0, true);
    (2, "write", "t1(mcs).bar.sub.R", 1, true);
    (1, "cas", "t1(mcs).bar.sub.C[2][1]", 0, true);
    (2, "read", "t1(mcs).bar.sub.C[2][1]", 1, false);
  ]

let run_trace () =
  let mem = Memory.create ~model:Memory.Dsm ~n:2 in
  let tr = Trace.create () in
  Trace.attach tr mem;
  let lock = Rme.Stack.recoverable mem "t1-mcs" in
  let body ~pid ~epoch =
    lock.Rme.Rme_intf.recover ~pid ~epoch;
    lock.Rme.Rme_intf.enter ~pid ~epoch;
    lock.Rme.Rme_intf.exit ~pid ~epoch
  in
  Runtime.run (Runtime.create mem ~body) (Schedule.round_robin ());
  tr

let golden_prefix () =
  let tr = run_trace () in
  let actual =
    List.filter_map
      (function
        | Trace.Op { pid; op; cell; value; rmr; _ } ->
          Some (pid, op, cell, value, rmr)
        | Trace.Crash _ | Trace.Crash_one _ | Trace.Phase _ -> None)
      (Trace.events tr)
  in
  List.iteri
    (fun i exp ->
      match List.nth_opt actual i with
      | Some act when act = exp -> ()
      | Some (pid, op, cell, value, rmr) ->
        let epid, eop, ecell, evalue, ermr = exp in
        Alcotest.failf
          "step %d diverged: got p%d %s %s = %d rmr=%b, expected p%d %s %s \
           = %d rmr=%b"
          i pid op cell value rmr epid eop ecell evalue ermr
      | None -> Alcotest.failf "trace too short at step %d" i)
    expected_prefix

let golden_totals () =
  let tr = run_trace () in
  (* The whole boot-recovery + one passage each costs exactly this many
     shared-memory operations. *)
  Alcotest.(check int) "total operations" 55 (Trace.total tr)

let () =
  Alcotest.run "golden"
    [
      ( "t1-mcs-boot-trace",
        [
          Alcotest.test_case "step-prefix" `Quick golden_prefix;
          Alcotest.test_case "total-steps" `Quick golden_totals;
        ] );
    ]
