(* Thin facade over {!Scenario}'s builder compositions;
   test/test_scenario.ml pins their search outcomes — verdicts, counts,
   distinct states and witnesses — at every reduction level. *)

let rme ?passages ?check_csr ~n ~model ~make () =
  Scenario.to_scenario (Scenario.rme_lock ?passages ?check_csr ~n ~model ~make ())

let mutex ?passages ~n ~model ~make () =
  Scenario.to_scenario (Scenario.mutex_lock ?passages ~n ~model ~make ())

let barrier ?epochs ~n ~model () =
  Scenario.to_scenario (Scenario.barrier_rounds ?epochs ~n ~model ())

let barrier_sub ?lid ~n ~model () =
  Scenario.to_scenario (Scenario.barrier_sub_rounds ?lid ~n ~model ())
