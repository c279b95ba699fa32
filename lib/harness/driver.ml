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

let run ?(max_steps = 2_000_000) ?(passages = 100) ~n ~model ~make ~schedule ()
    =
  let mem = Memory.create ~model ~n in
  let lock = make mem in
  let counter = Memory.global mem ~name:"driver.protected" 0 in
  (* Persistent environment state (survives crashes, like application
     NVRAM). *)
  let completed = Array.make (n + 1) 0 in
  let last_epoch = Array.make (n + 1) min_int in
  let in_wait = Array.make (n + 1) false in
  let overtakes = Array.make (n + 1) 0 in
  (* Monitor state. *)
  let occupant = ref 0 in
  let me_violations = ref 0 in
  let csr_owner = ref 0 in
  let csr_violations = ref 0 in
  let csr_reentries = ref 0 in
  let cs_completions = ref 0 in
  let max_overtaking = ref 0 in
  let steady_rmrs = Stats.create () in
  let recovery_rmrs = Stats.create () in
  let leader_recovery_rmrs = Stats.create () in
  let follower_recovery_rmrs = Stats.create () in
  let steady_sec = Stats.create () in
  let recovery_sec = Stats.create () in
  let exit_steps = Stats.create () in
  let steady_recover_steps = Stats.create () in
  let steady_passage_steps = Stats.create () in
  let recovery_passage_steps = Stats.create () in
  (* Recovery-leader proxy: the first process to begin a passage in each
     epoch is the one that (in Transformation 1) typically wins the
     leader CAS and pays the base-lock reset; everyone else recovers as a
     non-leader. Plain monitor state, like everything else here. *)
  let leader_epoch = ref Stdlib.min_int in
  let body ~pid ~epoch =
    while completed.(pid) < passages do
      let rmr0 = Memory.rmrs mem ~pid in
      let step0 = Memory.steps mem ~pid in
      if not in_wait.(pid) then begin
        in_wait.(pid) <- true;
        overtakes.(pid) <- 0
      end;
      let recovery_passage = last_epoch.(pid) <> epoch in
      let recovery_leader = recovery_passage && !leader_epoch <> epoch in
      if recovery_leader then leader_epoch := epoch;
      lock.Rme.Rme_intf.recover ~pid ~epoch;
      let recover_rmrs = Memory.rmrs mem ~pid - rmr0 in
      let recover_steps = Memory.steps mem ~pid - step0 in
      lock.Rme.Rme_intf.enter ~pid ~epoch;
      (* --- critical section --- *)
      if !occupant <> 0 then incr me_violations;
      occupant := pid;
      if !csr_owner <> 0 then
        if !csr_owner = pid then begin
          incr csr_reentries;
          csr_owner := 0
        end
        else incr csr_violations;
      for q = 1 to n do
        if q <> pid && in_wait.(q) then begin
          overtakes.(q) <- overtakes.(q) + 1;
          if overtakes.(q) > !max_overtaking then
            max_overtaking := overtakes.(q)
        end
      done;
      in_wait.(pid) <- false;
      let v = Proc.read counter in
      Proc.write counter (v + 1);
      occupant := 0;
      incr cs_completions;
      (* --- end critical section --- *)
      let exit0 = Memory.steps mem ~pid in
      lock.Rme.Rme_intf.exit ~pid ~epoch;
      Stats.add_int exit_steps (Memory.steps mem ~pid - exit0);
      let passage_rmrs = Memory.rmrs mem ~pid - rmr0 in
      let passage_steps = Memory.steps mem ~pid - step0 in
      if recovery_passage then begin
        Stats.add_int recovery_rmrs passage_rmrs;
        Stats.add_int
          (if recovery_leader then leader_recovery_rmrs
           else follower_recovery_rmrs)
          passage_rmrs;
        Stats.add_int recovery_sec recover_rmrs;
        Stats.add_int recovery_passage_steps passage_steps
      end
      else begin
        Stats.add_int steady_rmrs passage_rmrs;
        Stats.add_int steady_sec recover_rmrs;
        Stats.add_int steady_recover_steps recover_steps;
        Stats.add_int steady_passage_steps passage_steps
      end;
      last_epoch.(pid) <- epoch;
      completed.(pid) <- completed.(pid) + 1
    done
  in
  let rt = Runtime.create mem ~body in
  Runtime.on_crash rt (fun ~epoch:_ ->
      (* The process in the CS at a crash must re-enter before anyone else
         may (CSR). [in_wait] persists: its super-passage continues. *)
      if !occupant <> 0 then csr_owner := !occupant;
      occupant := 0);
  let rec loop () =
    if Runtime.clock rt < max_steps then begin
      match Runtime.enabled rt with
      | [] -> ()
      | en -> (
        match schedule ~clock:(Runtime.clock rt) ~enabled:en with
        | None -> ()
        | Some (Schedule.Step pid) ->
          Runtime.step rt pid;
          loop ()
        | Some Schedule.Crash ->
          Runtime.crash rt ();
          loop ()
        | Some (Schedule.Crash_one pid) ->
          (* Independent failure (outside the paper's model): the victim
             abandons the CS if it held it; everything else keeps going. *)
          if !occupant = pid then begin
            csr_owner := pid;
            occupant := 0
          end;
          Runtime.crash_one rt pid;
          loop ())
    end
  in
  loop ();
  let all_done =
    Array.for_all (fun c -> c >= passages) (Array.sub completed 1 n)
  in
  {
    n;
    model;
    lock_name = lock.Rme.Rme_intf.name;
    completed;
    target = passages;
    all_done;
    total_steps = Runtime.clock rt;
    total_rmrs = Memory.total_rmrs mem;
    crashes = Runtime.crashes rt;
    me_violations = !me_violations;
    csr_violations = !csr_violations;
    csr_reentries = !csr_reentries;
    cs_completions = !cs_completions;
    counter_value = Memory.peek counter;
    max_overtaking = !max_overtaking;
    steady_rmrs;
    recovery_rmrs;
    leader_recovery_rmrs;
    follower_recovery_rmrs;
    steady_recover_section_rmrs = steady_sec;
    recovery_recover_section_rmrs = recovery_sec;
    exit_steps;
    steady_recover_steps;
    steady_passage_steps;
    recovery_passage_steps;
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
