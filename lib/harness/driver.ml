open Sim

type report = {
  n : int;
  model : Memory.model;
  lock_name : string;
  completed : int array;
  target : int;
  all_done : bool;
  total_steps : int;
  total_rmrs : int;
  crashes : int;
  me_violations : int;
  csr_violations : int;
  csr_reentries : int;
  cs_completions : int;
  counter_value : int;
  max_overtaking : int;
  steady_rmrs : Stats.t;
  recovery_rmrs : Stats.t;
  leader_recovery_rmrs : Stats.t;
  follower_recovery_rmrs : Stats.t;
  steady_recover_section_rmrs : Stats.t;
  recovery_recover_section_rmrs : Stats.t;
  exit_steps : Stats.t;
  steady_recover_steps : Stats.t;
  steady_passage_steps : Stats.t;
  recovery_passage_steps : Stats.t;
}

(* The run is a {!Scenario} composition — the same workload and the same
   mutual-exclusion, CSR and lost-update monitors the storms and the
   model checker use, plus the overtaking and passage-statistics sets —
   built through {!Model_check.world} and stepped by {!Runtime.run}: the
   schedule's decisions only, with no per-step productive scan, trail or
   intervention list. *)
let run ?(max_steps = 2_000_000) ?(passages = 100) ~n ~model ~make ~schedule ()
    =
  let lock_name = ref "" in
  let make mem =
    let lock = make mem in
    lock_name := lock.Rme.Rme_intf.name;
    lock
  in
  let w =
    Model_check.world
      (Scenario.to_scenario
         (Scenario.v ~n ~model
            ~workload:(Scenario.rme_passages ~passages ~make)
            ~monitors:
              [
                Scenario.mutex_monitors ();
                Scenario.lost_update_monitor ();
                Scenario.overtaking ();
                Scenario.passage_stats ();
              ]))
  in
  let rt = Model_check.runtime w in
  Runtime.run ~max_steps rt schedule;
  Model_check.finish w;
  let count = Model_check.counter w and hist = Model_check.histogram w in
  let completed = Model_check.array w "completed" in
  let total_steps = Runtime.clock rt and crashes = Runtime.crashes rt in
  Runtime.reset rt;
  {
    n;
    model;
    lock_name = !lock_name;
    completed;
    target = passages;
    all_done = Array.for_all (fun c -> c >= passages) (Array.sub completed 1 n);
    total_steps;
    total_rmrs = Memory.total_rmrs (Model_check.memory w);
    crashes;
    me_violations = count "me-violations";
    csr_violations = count "csr-violations";
    csr_reentries = count "csr-reentries";
    cs_completions = count "cs-completions";
    counter_value = count "protected-counter";
    max_overtaking = count "max-overtaking";
    steady_rmrs = hist "steady_rmrs";
    recovery_rmrs = hist "recovery_rmrs";
    leader_recovery_rmrs = hist "leader_recovery_rmrs";
    follower_recovery_rmrs = hist "follower_recovery_rmrs";
    steady_recover_section_rmrs = hist "steady_recover_section_rmrs";
    recovery_recover_section_rmrs = hist "recovery_recover_section_rmrs";
    exit_steps = hist "exit_steps";
    steady_recover_steps = hist "steady_recover_steps";
    steady_passage_steps = hist "steady_passage_steps";
    recovery_passage_steps = hist "recovery_passage_steps";
  }

let pp_report ppf r =
  Format.fprintf ppf
    "@[<v>%s n=%d %a: done=%b steps=%d rmrs=%d crashes=%d@,\
     ME-viol=%d CSR-viol=%d CSR-reentries=%d cs=%d counter=%d overtake<=%d@,\
     steady RMR/passage: %a@,\
     recovery RMR/passage: %a@,\
     exit steps: %a@]"
    r.lock_name r.n Memory.pp_model r.model r.all_done r.total_steps
    r.total_rmrs r.crashes r.me_violations r.csr_violations r.csr_reentries
    r.cs_completions r.counter_value r.max_overtaking Stats.pp r.steady_rmrs
    Stats.pp r.recovery_rmrs Stats.pp r.exit_steps

(* Machine-readable report: every scalar the report tracks plus the full
   histogram of every Stats accumulator. Purely derived from the report,
   so same-seed runs serialize byte-identically. *)
let histograms =
  [
    ("steady_rmrs", fun r -> r.steady_rmrs);
    ("recovery_rmrs", fun r -> r.recovery_rmrs);
    ("leader_recovery_rmrs", fun r -> r.leader_recovery_rmrs);
    ("follower_recovery_rmrs", fun r -> r.follower_recovery_rmrs);
    ("steady_recover_section_rmrs", fun r -> r.steady_recover_section_rmrs);
    ("recovery_recover_section_rmrs", fun r -> r.recovery_recover_section_rmrs);
    ("exit_steps", fun r -> r.exit_steps);
    ("steady_recover_steps", fun r -> r.steady_recover_steps);
    ("steady_passage_steps", fun r -> r.steady_passage_steps);
    ("recovery_passage_steps", fun r -> r.recovery_passage_steps);
  ]

let schema =
  let open Json.Schema in
  let count = int ~min:0 () in
  doc "rme-metrics/1"
    ~where:(same_length ~list:"completed" ~count:"n")
    [
      req "lock" str;
      req "n" (int ~min:1 ());
      req "model" str;
      req "target_passages" count;
      req "all_done" bool;
      req "completed" (list count);
      req "total_steps" count;
      req "total_rmrs" count;
      req "crashes" count;
      req "me_violations" count;
      req "csr_violations" count;
      req "csr_reentries" count;
      req "cs_completions" count;
      req "counter_value" (int ());
      req "max_overtaking" count;
      req "histograms"
        (obj (List.map (fun (k, _) -> req k Stats.json_schema) histograms));
    ]

let metrics r =
  Json.Obj
    [
      ("schema", Json.Str (Json.Schema.name schema));
      ("lock", Json.Str r.lock_name);
      ("n", Json.Int r.n);
      ("model", Json.Str (Format.asprintf "%a" Memory.pp_model r.model));
      ("target_passages", Json.Int r.target);
      ("all_done", Json.Bool r.all_done);
      ( "completed",
        Json.List
          (List.tl (Array.to_list (Array.map (fun c -> Json.Int c) r.completed)))
      );
      ("total_steps", Json.Int r.total_steps);
      ("total_rmrs", Json.Int r.total_rmrs);
      ("crashes", Json.Int r.crashes);
      ("me_violations", Json.Int r.me_violations);
      ("csr_violations", Json.Int r.csr_violations);
      ("csr_reentries", Json.Int r.csr_reentries);
      ("cs_completions", Json.Int r.cs_completions);
      ("counter_value", Json.Int r.counter_value);
      ("max_overtaking", Json.Int r.max_overtaking);
      ( "histograms",
        Json.Obj
          (List.map (fun (k, h) -> (k, Stats.to_json (h r))) histograms) );
    ]

let metrics_json r = Json.to_string ~pretty:true (metrics r) ^ "\n"

let check_clean r =
  if r.me_violations > 0 then
    Error (Printf.sprintf "%d mutual-exclusion violations" r.me_violations)
  else if r.counter_value <> r.cs_completions then
    Error
      (Printf.sprintf "lost updates: counter=%d but %d CS completions"
         r.counter_value r.cs_completions)
  else if not r.all_done then Error "not all processes completed their target"
  else Ok ()
