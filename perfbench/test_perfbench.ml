(* Tests for the benchmark's own code: the raw-sample statistics, the
   failure accounting of the correctness gates, and the agreement of the
   emitted metric names and units with BENCHMARK.json. *)

let feq = Alcotest.float 1e-9
let pct a p = Measure.percentile a p

let test_percentile () =
  Alcotest.(check (option feq)) "empty" None (pct [||] 50.);
  Alcotest.(check (option feq)) "single p50" (Some 7.) (pct [| 7. |] 50.);
  Alcotest.(check (option feq)) "single p99" (Some 7.) (pct [| 7. |] 99.);
  Alcotest.(check (option feq)) "tied" (Some 5.) (pct [| 5.; 5.; 5.; 5. |] 99.9);
  Alcotest.(check (option feq)) "odd median, unsorted input" (Some 3.)
    (pct [| 5.; 1.; 3.; 2.; 4. |] 50.);
  Alcotest.(check (option feq)) "interpolated" (Some 1.5) (pct [| 2.; 1. |] 50.);
  Alcotest.(check (option feq)) "p0 is the minimum" (Some 1.) (pct [| 3.; 1.; 2. |] 0.);
  Alcotest.(check (option feq)) "p100 is the maximum" (Some 3.)
    (pct [| 3.; 1.; 2. |] 100.)

let test_summary () =
  let s = Measure.summarize [||] in
  Alcotest.(check int) "empty count" 0 s.Measure.count;
  Alcotest.(check feq) "empty p50" 0. s.Measure.p50;
  let s = Measure.summarize [| 4. |] in
  Alcotest.(check int) "single count" 1 s.Measure.count;
  Alcotest.(check feq) "single tail falls back to p50" 4. s.Measure.tail;
  Alcotest.(check feq) "single tail level" 50. s.Measure.tail_pct;
  (* the highest level with at least ten samples beyond it *)
  List.iter
    (fun (n, level) ->
      Alcotest.(check feq) (Printf.sprintf "tail level of %d samples" n) level
        (Measure.tail_level n))
    [ (19, 50.); (40, 75.); (100, 90.); (999, 95.); (1000, 99.); (10_000, 99.9) ];
  let tied = Measure.summarize (Array.make 2000 9.) in
  Alcotest.(check feq) "tied tail" 9. tied.Measure.tail;
  Alcotest.(check feq) "tied level" 99. tied.Measure.tail_pct

let test_ratio () =
  Alcotest.(check feq) "zero base reads 0" 0. (Measure.ratio 5. 0.);
  Alcotest.(check feq) "zero over zero" 0. (Measure.ratio_int 0 0);
  Alcotest.(check feq) "plain" 2.5 (Measure.ratio_int 5 2)

let test_recorder () =
  let r = Measure.recorder 2 in
  List.iter (Measure.add r) [ 10; 20; 30 ];
  Alcotest.(check int) "kept" 2 r.Measure.len;
  Alcotest.(check int) "dropped past capacity" 1 r.Measure.dropped;
  Alcotest.(check int) "sum" 30 (Measure.sum r);
  Alcotest.(check (array feq)) "scaled samples" [| 0.01; 0.02 |]
    (Measure.samples ~scale:1e-3 [ r ])

(* A small clean search: T3(MCS), n=2, no divergence, one crash. *)
let small_search () =
  Harness.Model_check.explore ~divergence_bound:0 ~crash_bound:1
    (Harness.Scenarios.rme ~n:2 ~model:Sim.Memory.Cc
       ~make:(fun mem -> Rme.Stack.recoverable mem "t3-mcs")
       ())

let test_search_gate () =
  let o = small_search () in
  let runs = o.Harness.Model_check.runs and steps = o.Harness.Model_check.steps in
  let t = Gate.tally () in
  Gate.search t ~expect:(runs, steps) o;
  Gate.search t o;
  Alcotest.(check (pair int int)) "right counts pass" (2, 0) (t.Gate.attempted, t.Gate.failed);
  let t = Gate.tally () in
  Gate.search t ~expect:(runs + 1, steps) o;
  Alcotest.(check (pair int int)) "a wrong expected count fails the search" (1, 1)
    (t.Gate.attempted, t.Gate.failed);
  Alcotest.(check int) "with a reason" 1 (List.length t.Gate.notes);
  let t = Gate.tally () in
  Gate.search t { o with Harness.Model_check.violations = [ "injected" ] };
  Alcotest.(check int) "a violation fails the search" 1 t.Gate.failed

let test_service_gate () =
  let r =
    Rme_service.Loadgen.run ~shards:8 ~seed:3 ~n:1 ~keys:100 ~per_worker:300 ()
  in
  let t = Gate.tally () in
  Gate.service t ~expected:300 r;
  Alcotest.(check (pair int int)) "clean run" (300, 0) (t.Gate.attempted, t.Gate.failed);
  let t = Gate.tally () in
  Gate.service t ~expected:301 r;
  Alcotest.(check bool) "a wrong expected count fails requests" true (t.Gate.failed >= 1);
  let t = Gate.tally () in
  let lost = Array.copy r.Rme_service.Loadgen.table_completions in
  lost.(0) <- lost.(0) + 1;
  Gate.service t ~expected:300
    { r with Rme_service.Loadgen.table_completions = lost };
  Alcotest.(check bool) "a double-served request fails" true (t.Gate.failed >= 1)

let spec_path = "../BENCHMARK.json"

let test_spec () =
  (match Catalog.check_spec_file spec_path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let spec = Sim.Json.parse (In_channel.with_open_bin spec_path In_channel.input_all) in
  let drop_first key = function
    | Sim.Json.Obj kvs ->
      Sim.Json.Obj
        (List.map
           (fun (k, v) ->
             match (k, v) with
             | k, Sim.Json.List (_ :: rest) when k = key -> (k, Sim.Json.List rest)
             | kv -> kv)
           kvs)
    | j -> j
  in
  List.iter
    (fun key ->
      match Catalog.check_spec (drop_first key spec) with
      | Ok () -> Alcotest.failf "a spec missing one %s metric was accepted" key
      | Error _ -> ())
    [ "end_to_end"; "per_layer" ]

let test_result_line () =
  let set = Catalog.end_to_end in
  let values = List.mapi (fun i m -> (m.Catalog.name, float_of_int (i + 1))) set in
  let j = Catalog.result_json ~correct:true ~attempted:4 ~failed:0 ~set values in
  (match j with
  | Sim.Json.Obj kvs ->
    Alcotest.(check (list string)) "exact keys"
      [ "correct"; "attempted"; "failed"; "metrics" ]
      (List.map fst kvs)
  | _ -> Alcotest.fail "result is not an object");
  (match Sim.Json.member "metrics" j with
  | Some (Sim.Json.Obj ms) ->
    Alcotest.(check (list string)) "every end-to-end metric"
      (List.map (fun m -> m.Catalog.name) set)
      (List.map fst ms);
    List.iter2
      (fun m (_, v) ->
        Alcotest.(check (option string)) (m.Catalog.name ^ " unit")
          (Some m.Catalog.unit_)
          (match Sim.Json.member "unit" v with Some (Sim.Json.Str u) -> Some u | _ -> None))
      set ms
  | _ -> Alcotest.fail "no metrics object");
  Alcotest.check_raises "a missing metric is refused"
    (Failure "perfbench: no value for peak_rss_mb")
    (fun () ->
      ignore
        (Catalog.result_json ~correct:true ~attempted:1 ~failed:0 ~set
           (List.filter (fun (n, _) -> n <> "peak_rss_mb") values)));
  Alcotest.check_raises "an undeclared metric is refused"
    (Failure "perfbench: undeclared metric bogus")
    (fun () ->
      ignore
        (Catalog.result_json ~correct:true ~attempted:1 ~failed:0 ~set
           (("bogus", 1.) :: values)))

let () =
  Alcotest.run "perfbench"
    [
      ( "measure",
        [
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "summary" `Quick test_summary;
          Alcotest.test_case "ratio" `Quick test_ratio;
          Alcotest.test_case "recorder" `Quick test_recorder;
        ] );
      ( "gate",
        [
          Alcotest.test_case "search" `Quick test_search_gate;
          Alcotest.test_case "service" `Quick test_service_gate;
        ] );
      ( "catalog",
        [
          Alcotest.test_case "BENCHMARK.json" `Quick test_spec;
          Alcotest.test_case "result line" `Quick test_result_line;
        ] );
    ]
