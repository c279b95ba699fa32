(* Tests for the observability layer: the hand-rolled JSON codec, the
   trace exporters (JSONL + Chrome trace-event), the driver's metrics
   document, table rendering with UTF-8 widths, and the bench-JSON
   validator. The load-bearing property throughout is *passive
   determinism*: exporters are pure functions of seeded runs, so the same
   seed must produce byte-identical artifacts — including while a busy
   domain pool runs unrelated work, which is what `--jobs` independence
   means for the artifacts. *)

open Sim
open Testutil
module Driver = Harness.Driver
module Report = Harness.Report
module Pool = Parallel.Pool

(* --- Json --- *)

let json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a\"b\\c\nd\te\xc3\xa9");
        ("i", Json.Int (-42));
        ("f", Json.Float 1.5);
        ("b", Json.Bool true);
        ("null", Json.Null);
        ("l", Json.List [ Json.Int 1; Json.Str "x"; Json.Obj [] ]);
      ]
  in
  let compact = Json.to_string doc in
  let pretty = Json.to_string ~pretty:true doc in
  Alcotest.(check bool) "roundtrip compact" true (Json.parse compact = doc);
  Alcotest.(check bool) "roundtrip pretty" true (Json.parse pretty = doc);
  (* Integral floats are emitted without a decimal point, so they
     normalize to Int through a roundtrip — histogram bounds etc. stay
     clean integers in the artifacts. *)
  Alcotest.(check bool) "integral float normalizes" true
    (Json.parse (Json.to_string (Json.Float 12345.0)) = Json.Int 12345)

let json_parse_escapes () =
  (match Json.parse "\"caf\\u00e9 \\ud83d\\ude00\"" with
  | Json.Str s ->
    Alcotest.(check string) "unicode escapes" "caf\xc3\xa9 \xf0\x9f\x98\x80" s
  | _ -> Alcotest.fail "expected a string");
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted invalid JSON %S" bad)
    [
      "{"; "[1,]"; "nul"; "\"a"; "1 2"; "{\"a\":}"; "{\"jobs\":1,\"jobs\":2}";
      "[{\"a\":{\"b\":1,\"b\":1}}]";
    ]

let json_rejects_non_finite () =
  List.iter
    (fun f ->
      match Json.to_string (Json.Float f) with
      | exception Invalid_argument _ -> ()
      | s -> Alcotest.failf "emitted %s for a non-finite float" s)
    [ Float.infinity; Float.neg_infinity; Float.nan ]

(* --- trace exporters --- *)

(* The `rme trace` scenario: a lock stack under a seeded uniform schedule
   with periodic system-wide crashes, passage phases marked. *)
let traced_run ?(steps = 400) ?(seed = 9) () =
  let mem = Memory.create ~model:Memory.Cc ~n:3 in
  let tr = Trace.create () in
  Trace.attach tr mem;
  let lock = Rme.Stack.recoverable mem "t1-mcs" in
  let span ~pid phase f =
    Trace.phase_begin tr ~pid phase;
    f ();
    Trace.phase_end tr ~pid phase
  in
  let body ~pid ~epoch =
    while true do
      span ~pid Trace.Recover (fun () -> lock.Rme.Rme_intf.recover ~pid ~epoch);
      span ~pid Trace.Entry (fun () -> lock.Rme.Rme_intf.enter ~pid ~epoch);
      span ~pid Trace.Cs (fun () -> ());
      span ~pid Trace.Exit (fun () -> lock.Rme.Rme_intf.exit ~pid ~epoch)
    done
  in
  let rt = Runtime.create mem ~body in
  Runtime.on_crash rt (fun ~epoch -> Trace.record_crash tr ~epoch);
  let schedule =
    Schedule.with_crashes ~every:97 (Schedule.uniform ~seed)
  in
  let rec loop () =
    if Runtime.clock rt < steps then
      match Runtime.enabled rt with
      | [] -> ()
      | en -> (
        match schedule ~clock:(Runtime.clock rt) ~enabled:en with
        | Some (Schedule.Step pid) ->
          Runtime.step rt pid;
          loop ()
        | Some Schedule.Crash ->
          Runtime.crash rt ();
          loop ()
        | Some (Schedule.Crash_one pid) ->
          Runtime.crash_one rt pid;
          Trace.record_crash_one tr ~pid;
          loop ()
        | None -> ())
  in
  loop ();
  tr

let exports_are_byte_stable () =
  let tr1 = traced_run () in
  let tr2 = traced_run () in
  Alcotest.(check string) "jsonl" (Trace.to_jsonl tr1) (Trace.to_jsonl tr2);
  Alcotest.(check string) "chrome" (Trace.to_chrome tr1) (Trace.to_chrome tr2);
  (* ... and a busy pool on other domains must not perturb them (the
     artifact-level face of the `--jobs` independence contract). *)
  Pool.with_pool ~jobs:4 (fun pool ->
      let busy =
        List.init 6 (fun i ->
            Pool.async pool (fun () ->
                (run_stack ~n:3 ~passages:10 ~seed:(50 + i)
                   ~model:Memory.Dsm "t3-mcs")
                  .Driver.total_steps))
      in
      let tr3 = traced_run () in
      Alcotest.(check string) "jsonl under pool" (Trace.to_jsonl tr1)
        (Trace.to_jsonl tr3);
      Alcotest.(check string) "chrome under pool" (Trace.to_chrome tr1)
        (Trace.to_chrome tr3);
      List.iter (fun f -> ignore (Pool.await f)) busy)

let chrome_export_is_valid_and_balanced () =
  let tr = traced_run () in
  let doc = Json.parse (Trace.to_chrome tr) in
  let events =
    match Json.member "traceEvents" doc with
    | Some (Json.List evs) -> evs
    | _ -> Alcotest.fail "no traceEvents array"
  in
  Alcotest.(check bool) "has events" true (List.length events > 10);
  (* Every event is well-formed; B/E spans balance per thread. *)
  let depth : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      let str k =
        match Json.member k ev with
        | Some (Json.Str s) -> s
        | _ -> Alcotest.failf "event missing string %S" k
      in
      let int k =
        match Json.member k ev with
        | Some (Json.Int i) -> i
        | _ -> Alcotest.failf "event missing int %S" k
      in
      let ph = str "ph" in
      Alcotest.(check bool)
        ("known ph " ^ ph)
        true
        (List.mem ph [ "M"; "X"; "B"; "E"; "i" ]);
      if ph <> "M" then ignore (int "ts");
      let tid = int "tid" in
      match ph with
      | "B" -> Hashtbl.replace depth tid (1 + Option.value ~default:0 (Hashtbl.find_opt depth tid))
      | "E" ->
        let d = Option.value ~default:0 (Hashtbl.find_opt depth tid) in
        Alcotest.(check bool) "E has matching B" true (d > 0);
        Hashtbl.replace depth tid (d - 1)
      | _ -> ())
    events;
  Hashtbl.iter
    (fun tid d -> Alcotest.(check int) (Printf.sprintf "tid %d balanced" tid) 0 d)
    depth;
  (* The crash schedule fired, and the exporter recorded it. *)
  let crashes =
    List.filter
      (fun ev -> Json.member "ph" ev = Some (Json.Str "i"))
      events
  in
  Alcotest.(check bool) "crash instants present" true (crashes <> [])

let jsonl_lines_parse () =
  let tr = traced_run () in
  let lines =
    String.split_on_char '\n' (Trace.to_jsonl tr)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check int) "one line per event" (Trace.length tr)
    (List.length lines);
  List.iter
    (fun l ->
      match Json.parse l with
      | Json.Obj kvs ->
        Alcotest.(check bool) "has seq+type" true
          (List.mem_assoc "seq" kvs && List.mem_assoc "type" kvs)
      | _ -> Alcotest.fail "JSONL line is not an object")
    lines

(* --- driver metrics --- *)

let crashy_report seed =
  run_stack ~n:4 ~passages:15 ~seed ~model:Memory.Cc
    ~schedule:
      (Schedule.with_crashes ~every:700 (Schedule.uniform ~seed))
    "t1-mcs"

let driver_metrics_stable_across_jobs () =
  let quiet = Driver.metrics_json (crashy_report 21) in
  (* Same seed, same bytes — sequentially and on pools of any width. *)
  List.iter
    (fun jobs ->
      Pool.with_pool ~jobs (fun pool ->
          let docs =
            Pool.map pool
              (fun seed -> Driver.metrics_json (crashy_report seed))
              [ 21; 22; 21 ]
          in
          match docs with
          | [ a; _; c ] ->
            Alcotest.(check string)
              (Printf.sprintf "jobs=%d replays" jobs)
              quiet a;
            Alcotest.(check string)
              (Printf.sprintf "jobs=%d self-consistent" jobs)
              a c
          | _ -> assert false))
    [ 1; 4 ]

let metrics_json_is_finite_and_valid () =
  (* A failure-free run leaves every recovery histogram empty — exactly
     where the old ±inf sentinels used to leak. *)
  let r = run_stack ~n:3 ~passages:8 ~seed:5 ~model:Memory.Cc "t1-mcs" in
  let s = Driver.metrics_json r in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun bad ->
      if contains bad s then Alcotest.failf "metrics JSON contains %S" bad)
    [ "inf"; "nan"; "Infinity"; "NaN" ];
  match Json.parse s with
  | Json.Obj kvs ->
    Alcotest.(check bool) "schema" true
      (List.assoc_opt "schema" kvs = Some (Json.Str "rme-metrics/1"));
    Alcotest.(check bool) "histograms" true (List.mem_assoc "histograms" kvs)
  | _ -> Alcotest.fail "metrics is not an object"

let driver_metrics_validate () =
  let accepts what doc =
    match Json.Schema.check Driver.schema doc with
    | Ok () -> ()
    | Error e -> Alcotest.failf "%s rejected: %s" what e
  in
  let rejects what doc =
    match Json.Schema.check Driver.schema doc with
    | Ok () -> Alcotest.failf "%s accepted" what
    | Error _ -> ()
  in
  (* A failure-free single-process run has no follower recovery, so that
     histogram is empty. *)
  let clean = run_stack ~n:1 ~passages:8 ~seed:5 ~model:Memory.Cc "t1-mcs" in
  Alcotest.(check int) "empty follower histogram" 0
    (Stats.count clean.Driver.follower_recovery_rmrs);
  let doc = Driver.metrics clean in
  accepts "failure-free run" doc;
  accepts "parsed back" (Json.parse (Json.to_string doc));
  match doc with
  | Json.Obj kvs ->
    rejects "tampered schema"
      (Json.Obj
         (List.map
            (function
              | "schema", _ -> ("schema", Json.Str "rme-metrics/0") | kv -> kv)
            kvs));
    rejects "missing histograms.exit_steps"
      (Json.Obj
         (List.map
            (function
              | "histograms", Json.Obj hs ->
                ("histograms", Json.Obj (List.remove_assoc "exit_steps" hs))
              | kv -> kv)
            kvs))
  | _ -> Alcotest.fail "metrics is not an object"

(* --- report rendering --- *)

let display_width_counts_scalars () =
  Alcotest.(check int) "ascii" 5 (Report.display_width "hello");
  Alcotest.(check int) "theta" 8 (Report.display_width "\xce\x98(log N)");
  Alcotest.(check int) "empty" 0 (Report.display_width "");
  Alcotest.(check int) "emoji" 1 (Report.display_width "\xf0\x9f\x98\x80")

let render_aligns_utf8 () =
  let lines =
    Report.render
      ~header:[ "algorithm"; "bound" ]
      [ [ "mcs"; "\xce\x98(1)" ]; [ "bakery"; "\xce\x98(N)" ] ]
  in
  (match lines with
  | _ :: _ :: _ -> ()
  | _ -> Alcotest.fail "expected header, rule and rows");
  let widths = List.map Report.display_width lines in
  List.iter
    (fun w -> Alcotest.(check int) "line width" (List.hd widths) w)
    widths

(* --- bench JSON validator --- *)

let minimal_bench ?(schema = Json.Schema.name Report.bench) () =
  Json.Obj
    [
      ("schema", Json.Str schema);
      ("experiment", Json.Str "e1");
      ("jobs", Json.Int 2);
      ("wall_clock_s", Json.Float 1.5);
      ( "tables",
        Json.List
          [
            Json.Obj
              [
                ("title", Json.Str "t");
                ("header", Json.List [ Json.Str "a" ]);
                ( "rows",
                  Json.List [ Json.List [ Json.Str "1" ] ] );
              ];
          ] );
      ("metrics", Json.Obj [ ("m", Json.Obj [ ("count", Json.Int 0) ]) ]);
      ("gates", Json.List []);
    ]

let validator_accepts_and_rejects () =
  (match Json.Schema.check Report.bench (minimal_bench ()) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "valid doc rejected: %s" e);
  let rejects what doc =
    match Json.Schema.check Report.bench doc with
    | Ok () -> Alcotest.failf "validator accepted %s" what
    | Error _ -> ()
  in
  rejects "wrong schema" (minimal_bench ~schema:"rme-bench/0" ());
  rejects "non-object" (Json.List []);
  (match minimal_bench () with
  | Json.Obj kvs ->
    let with_member k v =
      Json.Obj
        (List.map (fun (k', v') -> if k' = k then (k, v) else (k', v')) kvs)
    in
    rejects "fractional jobs" (with_member "jobs" (Json.Float 1.5));
    rejects "zero jobs" (with_member "jobs" (Json.Int 0));
    rejects "negative jobs" (with_member "jobs" (Json.Int (-2)));
    (* An integer literal beyond the OCaml int range parses as a Float. *)
    rejects "overflowing jobs"
      (with_member "jobs" (Json.parse "99999999999999999999999"));
    rejects "negative wall clock"
      (with_member "wall_clock_s" (Json.Float (-0.5)));
    rejects "missing tables"
      (Json.Obj (List.filter (fun (k, _) -> k <> "tables") kvs));
    (* A repeated member must not let a schema-valid first binding hide
       a second one: the parser refuses the document outright. *)
    (match
       Json.parse
         (Json.to_string (Json.Obj (kvs @ [ ("tables", Json.Str "junk") ])))
     with
    | exception Json.Parse_error _ -> ()
    | _ -> Alcotest.fail "parsed a document with a duplicate tables member");
    let gate verdict =
      Json.Obj
        [
          ("name", Json.Str "g");
          ("threshold", Json.Str "all >= 1");
          ("agg", Json.Str "all");
          ("observed", Json.Null);
          ("verdict", Json.Str verdict);
          ("deciding", Json.List []);
        ]
    in
    (match
       Json.Schema.check Report.bench
         (with_member "gates" (Json.List [ gate "fail" ]))
     with
    | Ok () -> ()
    | Error e -> Alcotest.failf "failed verdict rejected by the schema: %s" e);
    rejects "unknown verdict" (with_member "gates" (Json.List [ gate "ok" ]));
    rejects "non-string cell"
      (Json.Obj
         (List.map
            (function
              | "tables", _ ->
                ( "tables",
                  Json.List
                    [
                      Json.Obj
                        [
                          ("title", Json.Str "t");
                          ("header", Json.List [ Json.Str "a" ]);
                          ("rows", Json.List [ Json.List [ Json.Int 1 ] ]);
                        ];
                    ] )
              | kv -> kv)
            kvs))
  | _ -> assert false)

(* --- gates --- *)

(* One table of (agg, bound, rows) cases against the runner's verdict:
   pass/fail, the observed value, the deciding rows and the threshold
   text, which comes from the aggregate and the bound alone. *)
let gate_runner_table () =
  let rows = [ ("a", 1.); ("b", 3.); ("c", 2.); ("d", 5.) ] in
  let cases =
    Report.
      [
        (Max, At_least 4., rows, true, 5., [ "d" ], "max >= 4");
        (Max, At_least 6., rows, false, 5., [ "d" ], "max >= 6");
        (Max, At_most 5., rows, true, 5., [ "d" ], "max <= 5");
        (Max, At_most 4.5, rows, false, 5., [ "d" ], "max <= 4.5");
        (Median, At_least 3., rows, true, 3., [ "b" ], "median >= 3");
        (Median, At_least 3.5, rows, false, 3., [ "b" ], "median >= 3.5");
        (Median, At_most 3., rows, true, 3., [ "b" ], "median <= 3");
        (Median, At_most 2., rows, false, 3., [ "b" ], "median <= 2");
        (All, At_least 1., rows, true, 1., [ "a" ], "all >= 1");
        (All, At_least 2.5, rows, false, 1., [ "a"; "c" ], "all >= 2.5");
        (All, At_most 5., rows, true, 5., [ "d" ], "all <= 5");
        (All, At_most 2., rows, false, 5., [ "b"; "d" ], "all <= 2");
        (All, At_most 1., [ ("x", 0.5); ("y", Float.nan) ], false, Float.nan,
          [ "y" ], "all <= 1");
        (Max, At_least 0., [], false, Float.nan, [], "max >= 0");
      ]
  in
  List.iteri
    (fun i (agg, bound, rows, pass, observed, deciding, threshold) ->
      let v = Report.judge_gate ~name:"g" ~agg bound rows in
      let what = Printf.sprintf "case %d (%s)" i threshold in
      Alcotest.(check bool) (what ^ ": verdict") pass v.Report.pass;
      Alcotest.(check string)
        (what ^ ": threshold") threshold v.Report.threshold;
      Alcotest.(check (list string))
        (what ^ ": deciding rows") deciding (List.map fst v.Report.deciding);
      if Float.compare observed v.Report.observed <> 0 then
        Alcotest.failf "%s: observed %g, expected %g" what v.Report.observed
          observed)
    cases;
  (* The runner judges what was recorded, in record order, and captures
     one deterministic table of it. *)
  Report.reset_captured ();
  Report.gate ~name:"holds" ~agg:Report.Max (Report.At_least 1.) rows;
  Report.gate ~name:"breaks" (Report.At_most 2.) rows;
  let verdicts = Report.run_gates ~title:"EX: gates" () in
  Alcotest.(check (list bool)) "verdicts" [ true; false ]
    (List.map (fun v -> v.Report.pass) verdicts);
  (match Report.captured () with
  | [ { Report.title = "EX: gates"; header; rows } ] ->
    Alcotest.(check (list string)) "header" [ "gate"; "threshold"; "verdict" ]
      header;
    Alcotest.(check (list (list string)))
      "rows"
      [ [ "holds"; "max >= 1"; "pass" ]; [ "breaks"; "all <= 2"; "fail" ] ]
      rows
  | _ -> Alcotest.fail "expected exactly the gates table");
  Report.reset_captured ();
  Alcotest.(check int) "reset clears gates" 0
    (List.length (Report.run_gates ~title:"EX: gates" ()))

(* A failed gate still yields a schema-valid bench file, and
   validate.exe FAILs it; so does a committed baseline whose verdict was
   edited to "fail". *)
let validate_fails_failed_gates () =
  let in_build f = Filename.concat (Filename.dirname Sys.executable_name) f in
  let validate = in_build "../bench/validate.exe" in
  let run_validate doc =
    let file = Filename.temp_file "bench_gate" ".json" in
    Out_channel.with_open_bin file (fun oc ->
        output_string oc (Json.to_string doc));
    let out = Filename.temp_file "validate" ".txt" in
    let code =
      Sys.command
        (Printf.sprintf "%s %s > %s" (Filename.quote validate)
           (Filename.quote file) (Filename.quote out))
    in
    let text = In_channel.with_open_bin out In_channel.input_all in
    Sys.remove file;
    Sys.remove out;
    (code, text)
  in
  let expect_fail what doc =
    match Json.Schema.check Report.bench doc with
    | Error e -> Alcotest.failf "%s: schema rejected the document: %s" what e
    | Ok () ->
      let code, text = run_validate doc in
      if code = 0 then
        Alcotest.failf "%s: validate.exe accepted it:\n%s" what text
  in
  let with_gates gates =
    match minimal_bench () with
    | Json.Obj kvs ->
      Json.Obj (List.remove_assoc "gates" kvs @ [ ("gates", gates) ])
    | _ -> assert false
  in
  Report.reset_captured ();
  Report.gate ~name:"speedup" ~agg:Report.Max (Report.At_least 1.2)
    [ ("x n=4", 1.1); ("x n=8", 0.9) ];
  let verdicts = Report.run_gates ~title:"EX: gates" () in
  Report.reset_captured ();
  expect_fail "runner output" (with_gates (Report.gates_json verdicts));
  let baseline =
    Json.parse
      (In_channel.with_open_bin
         (in_build "../bench/baselines/BENCH_E9.json")
         In_channel.input_all)
  in
  (match run_validate baseline with
  | 0, _ -> ()
  | _, text ->
    Alcotest.failf "validate.exe rejected the E9 baseline:\n%s" text);
  expect_fail "E9 baseline with a flipped verdict"
    (match baseline with
    | Json.Obj kvs ->
      Json.Obj
        (List.map
           (function
             | "gates", Json.List (Json.Obj g :: rest) ->
               ( "gates",
                 Json.List
                   (Json.Obj
                      (List.map
                         (function
                           | "verdict", _ -> ("verdict", Json.Str "fail")
                           | kv -> kv)
                         g)
                   :: rest) )
             | kv -> kv)
           kvs)
    | _ -> assert false)

(* --- model-check outcome validator (rme-mc-outcome/1) --- *)

let minimal_outcome_obj ?(extra = []) () =
  Json.Obj
    ([
       ("runs", Json.Int 3);
       ("steps", Json.Int 40);
       ("step_cap_hits", Json.Int 0);
       ("deadlocks", Json.Int 0);
       ("distinct_states", Json.Int 12);
       ("pruned_runs", Json.Int 1);
       ("pruned_branches", Json.Int 2);
       ("truncated", Json.Bool false);
       ("violations", Json.List []);
     ]
    @ extra)

let minimal_mc_outcome ?extra ?(top = []) () =
  Json.Obj
    ([
       ("schema", Json.Str (Json.Schema.name Report.mc_outcome));
       ("config", Json.Obj [ ("scenario", Json.Str "rme") ]);
       ("outcome", minimal_outcome_obj ?extra ());
       ("minimized_schedule", Json.Null);
     ]
    @ top)

let mc_outcome_validator_accepts_and_rejects () =
  let accepts what doc =
    match Json.Schema.check Report.mc_outcome doc with
    | Ok () -> ()
    | Error e -> Alcotest.failf "rejected %s: %s" what e
  in
  let rejects what doc =
    match Json.Schema.check Report.mc_outcome doc with
    | Ok () -> Alcotest.failf "accepted %s" what
    | Error _ -> ()
  in
  (* Pre-§5.19 documents (no sleep/bitstate/swarm members) stay valid. *)
  accepts "minimal legacy outcome" (minimal_mc_outcome ());
  (* ... and so do the new optional members, as ints or finite floats. *)
  accepts "sleep+bitstate members"
    (minimal_mc_outcome
       ~extra:
         [
           ("sleep_pruned", Json.Int 4);
           ("bitstate_occupancy", Json.Float 0.0312);
           ("collision_bound", Json.Float 0.00097);
         ]
       ());
  accepts "bitstate members as Null"
    (minimal_mc_outcome
       ~extra:
         [
           ("bitstate_occupancy", Json.Null); ("collision_bound", Json.Null);
         ]
       ());
  accepts "integral occupancy normalizes to Int"
    (minimal_mc_outcome ~extra:[ ("bitstate_occupancy", Json.Int 1) ] ());
  accepts "swarm member array"
    (minimal_mc_outcome
       ~top:
         [
           ( "swarm",
             Json.List
               [
                 Json.Obj
                   [
                     ("member", Json.Int 0);
                     ("divergence_bound", Json.Int 2);
                     ("crash_bound", Json.Int 0);
                     ("crash_one_bound", Json.Int 0);
                     ("salt", Json.Int 1);
                     ("outcome", minimal_outcome_obj ());
                   ];
               ] );
         ]
       ());
  (* Non-finite floats are exactly the sentinel leak the schema bans. *)
  rejects "NaN occupancy"
    (minimal_mc_outcome ~extra:[ ("bitstate_occupancy", Json.Float Float.nan) ] ());
  rejects "infinite collision bound"
    (minimal_mc_outcome
       ~extra:[ ("collision_bound", Json.Float Float.infinity) ] ());
  rejects "string occupancy"
    (minimal_mc_outcome ~extra:[ ("bitstate_occupancy", Json.Str "0.5") ] ());
  rejects "non-integer sleep_pruned"
    (minimal_mc_outcome ~extra:[ ("sleep_pruned", Json.Float 1.5) ] ());
  rejects "swarm not an array"
    (minimal_mc_outcome ~top:[ ("swarm", Json.Obj []) ] ());
  rejects "swarm member missing salt"
    (minimal_mc_outcome
       ~top:
         [
           ( "swarm",
             Json.List
               [
                 Json.Obj
                   [
                     ("member", Json.Int 0);
                     ("divergence_bound", Json.Int 2);
                     ("crash_bound", Json.Int 0);
                     ("crash_one_bound", Json.Int 0);
                     ("outcome", minimal_outcome_obj ());
                   ];
               ] );
         ]
       ());
  rejects "swarm member outcome missing counters"
    (minimal_mc_outcome
       ~top:
         [
           ( "swarm",
             Json.List
               [
                 Json.Obj
                   [
                     ("member", Json.Int 0);
                     ("divergence_bound", Json.Int 2);
                     ("crash_bound", Json.Int 0);
                     ("crash_one_bound", Json.Int 0);
                     ("salt", Json.Int 1);
                     ("outcome", Json.Obj [ ("runs", Json.Int 1) ]);
                   ];
               ] );
         ]
       ());
  (* The legacy shape rules still bite. *)
  rejects "missing minimized_schedule"
    (Json.Obj
       [
         ("schema", Json.Str (Json.Schema.name Report.mc_outcome));
         ("config", Json.Obj []);
         ("outcome", minimal_outcome_obj ());
       ]);
  rejects "wrong schema"
    (Json.Obj
       [
         ("schema", Json.Str "rme-mc-outcome/0");
         ("config", Json.Obj []);
         ("outcome", minimal_outcome_obj ());
         ("minimized_schedule", Json.Null);
       ])

(* --- every artifact schema, member by member --- *)

(* One real emitted document per schema, the members it may omit, and
   the per-worker array its cross-field check sizes against "n". *)
let emitted_documents () =
  (* The CLI and the baselines are test dependencies, next to this
     executable's directory in the build tree. *)
  let in_build f = Filename.concat (Filename.dirname Sys.executable_name) f in
  let outcome =
    let out = Filename.temp_file "mc_outcome" ".json" in
    let cmd =
      Printf.sprintf
        "%s model-check --scenario rme --stack t1-mcs -n 2 -d 2 -c 1 \
         --swarm 2 --vset-bits 12 --expect-violation --out %s > %s"
        (Filename.quote (in_build "../bin/rme_cli.exe"))
        (Filename.quote out) Filename.null
    in
    if Sys.command cmd <> 0 then Alcotest.failf "%s failed" cmd;
    let doc = Json.parse (In_channel.with_open_bin out In_channel.input_all) in
    Sys.remove out;
    doc
  in
  let bench =
    Json.parse
      (In_channel.with_open_bin (in_build "../bench/baselines/BENCH_E9.json")
         In_channel.input_all)
  in
  let native =
    Rme_native.Workers.run ~latency:true ~alloc_probe:true ~n:1 ~passages:2_000
      ~make:(fun crash ~n -> Rme_native.Stack.recoverable crash ~n "t1-mcs")
      ()
  in
  let service =
    Rme_service.Loadgen.run ~alloc_probe:true ~stack:"t1-mcs" ~shards:16
      ~keys:64 ~batch:8 ~seed:11 ~n:1 ~per_worker:2_000 ()
  in
  [
    (Report.bench, bench, [], None);
    (Report.mc_outcome, outcome, [ "swarm" ], None);
    (Driver.schema, Driver.metrics (crashy_report 21), [], Some "completed");
    ( Rme_native.Workers.schema,
      Rme_native.Workers.metrics native,
      [ "passage_latency"; "alloc_words_per_passage" ],
      Some "completed" );
    ( Rme_service.Loadgen.schema,
      Rme_service.Loadgen.metrics service,
      [ "alloc_words_per_request" ],
      Some "served" );
  ]

let every_schema_requires_its_members () =
  List.iter
    (fun (schema, doc, optional, per_worker) ->
      let name = Json.Schema.name schema in
      let accepts doc = Result.is_ok (Json.Schema.check schema doc) in
      (match Json.Schema.check schema doc with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: emitted document rejected: %s" name e);
      let kvs = match doc with Json.Obj kvs -> kvs | _ -> assert false in
      if schema == Report.bench && not (List.mem_assoc "gates" kvs) then
        Alcotest.failf "%s: the E9 baseline carries no gates member" name;
      List.iter
        (fun (k, _) ->
          match
            (List.mem k optional, accepts (Json.Obj (List.remove_assoc k kvs)))
          with
          | false, true -> Alcotest.failf "%s: accepted without %S" name k
          | true, false ->
            Alcotest.failf "%s: rejected without optional %S" name k
          | _ -> ())
        kvs;
      List.iter
        (fun k ->
          if not (List.mem_assoc k kvs) then
            Alcotest.failf "%s: optional %S not exercised" name k)
        optional;
      Option.iter
        (fun key ->
          let grown =
            List.map
              (function
                | k, Json.List xs when k = key ->
                  (k, Json.List (Json.Int 0 :: xs))
                | kv -> kv)
              kvs
          in
          if accepts (Json.Obj grown) then
            Alcotest.failf "%s: accepted %s with n+1 entries" name key)
        per_worker)
    (emitted_documents ())

(* --- Stats merge edge cases (PR 3's sentinel fix must survive merge) --- *)

let float_eq what a b =
  if a <> b then Alcotest.failf "%s: expected %g, got %g" what b a

let stats_merge_empty_edges () =
  let populated () =
    let s = Stats.create () in
    List.iter (Stats.add s) [ 3.; 7.; 42. ];
    s
  in
  let check_like what m =
    Alcotest.(check int) (what ^ ": count") 3 (Stats.count m);
    float_eq (what ^ ": min") (Stats.min m) 3.;
    float_eq (what ^ ": max") (Stats.max m) 42.;
    float_eq (what ^ ": mean") (Stats.mean m) (52. /. 3.);
    float_eq (what ^ ": p100") (Stats.percentile m 100.) 42.;
    (* Emission must stay finite after the merge. *)
    ignore (Json.to_string (Stats.to_json m))
  in
  (* Merging an empty histogram in either direction must preserve exact
     count/min/max/percentile semantics of the populated side. *)
  check_like "empty into populated" (Stats.merge (Stats.create ()) (populated ()));
  check_like "populated into empty" (Stats.merge (populated ()) (Stats.create ()))

let stats_merge_all_empty () =
  (* A merge of empties is itself empty: every accessor must report 0,
     never the internal ±infinity sentinels, and to_json must emit. *)
  let m = Stats.merge (Stats.create ()) (Stats.create ()) in
  Alcotest.(check int) "count" 0 (Stats.count m);
  float_eq "min" (Stats.min m) 0.;
  float_eq "max" (Stats.max m) 0.;
  float_eq "mean" (Stats.mean m) 0.;
  float_eq "p50" (Stats.percentile m 50.) 0.;
  float_eq "p100" (Stats.percentile m 100.) 0.;
  ignore (Json.to_string (Stats.to_json m));
  (* And merging that empty merge into real data still works. *)
  let s = Stats.create () in
  Stats.add s 5.;
  let m2 = Stats.merge m s in
  Alcotest.(check int) "count after" 1 (Stats.count m2);
  float_eq "min after" (Stats.min m2) 5.;
  float_eq "max after" (Stats.max m2) 5.

let stats_nan_never_wedges_sentinels () =
  (* NaN is treated as 0: a histogram that only ever saw NaN has a real
     count and must still report finite min/max/mean and emit JSON. *)
  let s = Stats.create () in
  Stats.add s Float.nan;
  Alcotest.(check int) "count" 1 (Stats.count s);
  float_eq "min" (Stats.min s) 0.;
  float_eq "max" (Stats.max s) 0.;
  float_eq "mean" (Stats.mean s) 0.;
  ignore (Json.to_string (Stats.to_json s));
  ignore (Json.to_string (Stats.to_json (Stats.merge s s)))

(* --- the baseline gate's numeric-cell comparison --- *)

let tolerance_zero_baseline () =
  let within = Report.cell_within_tolerance in
  (* Nonzero baselines: relative to the larger magnitude, floored at 1. *)
  Alcotest.(check bool) "9% drift passes" true
    (within ~tolerance:0.10 ~base:100. ~fresh:109.);
  Alcotest.(check bool) "15% drift fails" false
    (within ~tolerance:0.10 ~base:100. ~fresh:115.);
  Alcotest.(check bool) "sub-1 magnitudes compare absolutely" true
    (within ~tolerance:0.10 ~base:0.5 ~fresh:0.58);
  Alcotest.(check bool) "negative baselines use magnitude" true
    (within ~tolerance:0.10 ~base:(-10.) ~fresh:(-10.9));
  (* Zero baseline: tolerance is an absolute epsilon around 0 — small
     fresh noise passes, material drift fails no matter how it compares
     relatively (fresh/0 is meaningless), and raising --tolerance admits
     exactly the values it names. *)
  Alcotest.(check bool) "zero to zero" true
    (within ~tolerance:0.10 ~base:0. ~fresh:0.);
  Alcotest.(check bool) "noise above zero passes" true
    (within ~tolerance:0.10 ~base:0. ~fresh:0.08);
  Alcotest.(check bool) "material drift from zero fails" false
    (within ~tolerance:0.10 ~base:0. ~fresh:2.);
  Alcotest.(check bool) "epsilon is absolute, not relative" false
    (within ~tolerance:2. ~base:0. ~fresh:5.);
  Alcotest.(check bool) "named epsilon admits the value" true
    (within ~tolerance:6. ~base:0. ~fresh:5.);
  (* The cell parser feeding it strips the truncation marker. *)
  Alcotest.(check bool) "truncation marker" true
    (Report.number_of_cell "1234+" = Some 1234.);
  Alcotest.(check bool) "non-numeric cell" true
    (Report.number_of_cell "yes" = None)

let () =
  Alcotest.run "observability"
    [
      ( "json",
        [
          case "roundtrip" json_roundtrip;
          case "escapes" json_parse_escapes;
          case "non-finite" json_rejects_non_finite;
        ] );
      ( "trace-export",
        [
          case "byte-stable" exports_are_byte_stable;
          case "chrome-valid" chrome_export_is_valid_and_balanced;
          case "jsonl-lines" jsonl_lines_parse;
        ] );
      ( "metrics",
        [
          case "stable-across-jobs" driver_metrics_stable_across_jobs;
          case "finite-and-valid" metrics_json_is_finite_and_valid;
          case "schema-valid" driver_metrics_validate;
        ] );
      ( "report",
        [
          case "display-width" display_width_counts_scalars;
          case "render-utf8" render_aligns_utf8;
        ] );
      ( "stats",
        [
          case "merge-empty-edges" stats_merge_empty_edges;
          case "merge-all-empty" stats_merge_all_empty;
          case "nan-never-wedges" stats_nan_never_wedges_sentinels;
        ] );
      ( "validator",
        [
          case "accepts-and-rejects" validator_accepts_and_rejects;
          case "mc-outcome" mc_outcome_validator_accepts_and_rejects;
          case "every-schema-member" every_schema_requires_its_members;
          case "zero-baseline-tolerance" tolerance_zero_baseline;
        ] );
      ( "gates",
        [
          case "runner-table" gate_runner_table;
          case "validate-fails-failed-gates" validate_fails_failed_gates;
        ] );
    ]
