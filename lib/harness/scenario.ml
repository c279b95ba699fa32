open Sim

(* --- probes: the template points a workload exposes to monitors --- *)

type probes = {
  arriving : pid:int -> epoch:int -> unit;
  starting : pid:int -> epoch:int -> unit;
  entered : pid:int -> epoch:int -> unit;
  in_cs : pid:int -> epoch:int -> unit;
  exiting : pid:int -> epoch:int -> unit;
  exited : pid:int -> epoch:int -> unit;
}

type monitor = {
  m_arriving : (pid:int -> epoch:int -> unit) option;
  m_starting : (pid:int -> epoch:int -> unit) option;
  m_entered : (pid:int -> epoch:int -> unit) option;
  m_in_cs : (pid:int -> epoch:int -> unit) option;
  m_exiting : (pid:int -> epoch:int -> unit) option;
  m_exited : (pid:int -> epoch:int -> unit) option;
  m_state : Model_check.declared;
}

let blank =
  {
    m_arriving = None;
    m_starting = None;
    m_entered = None;
    m_in_cs = None;
    m_exiting = None;
    m_exited = None;
    m_state = Model_check.nothing;
  }

type monitor_set = Memory.t -> violation:(string -> unit) -> monitor list

type workload_inst = {
  w_arrays : (string * int array) list;
  w_body : probes -> pid:int -> epoch:int -> unit;
}

type workload = Memory.t -> workload_inst

type t = {
  b_n : int;
  b_model : Memory.model;
  b_workload : workload;
  b_monitors : monitor_set list;
}

let v ~n ~model ~workload ~monitors =
  { b_n = n; b_model = model; b_workload = workload; b_monitors = monitors }

(* --- assembly ---

   Instantiation order is load-bearing for the committed fingerprints:
   the workload allocates its shared cells first (the lock), monitors
   second (e.g. the protected counter), and the declarations list the
   monitors' state in monitor order before the workload's progress
   arrays — the order the checker folds them in. *)

let nop ~pid:_ ~epoch:_ = ()

let assemble t mem ~violation =
  let w = t.b_workload mem in
  let mons = List.concat_map (fun ms -> ms mem ~violation) t.b_monitors in
  let chain sel =
    match List.filter_map sel mons with
    | [] -> nop
    | [ h ] -> h
    | hs -> fun ~pid ~epoch -> List.iter (fun h -> h ~pid ~epoch) hs
  in
  let probes =
    {
      arriving = chain (fun m -> m.m_arriving);
      starting = chain (fun m -> m.m_starting);
      entered = chain (fun m -> m.m_entered);
      in_cs = chain (fun m -> m.m_in_cs);
      exiting = chain (fun m -> m.m_exiting);
      exited = chain (fun m -> m.m_exited);
    }
  in
  ( w.w_body probes,
    List.map (fun m -> m.m_state) mons
    @ [ { Model_check.nothing with d_arrays = w.w_arrays } ] )

let to_scenario t =
  { Model_check.n = t.b_n; model = t.b_model; build = assemble t }

(* --- reusable monitor sets --- *)

let mutex_monitors ?(check_csr = true) () : monitor_set =
 fun _mem ~violation ->
  let occupant = ref 0 in
  let csr_owner = ref 0 in
  let me_violations = ref 0 in
  let csr_violations = ref 0 in
  let csr_reentries = ref 0 in
  let owner_died pid = csr_owner := pid in
  let mutex =
    {
      blank with
      m_entered =
        Some
          (fun ~pid ~epoch:_ ->
            if !occupant <> 0 then begin
              incr me_violations;
              violation
                (Printf.sprintf
                   "mutual exclusion: p%d entered while p%d in CS" pid
                   !occupant)
            end;
            occupant := pid);
      m_exiting = Some (fun ~pid:_ ~epoch:_ -> occupant := 0);
      m_state =
        {
          Model_check.nothing with
          d_refs = [ ("occupant", occupant) ];
          d_counters = [ ("me-violations", me_violations) ];
          d_crash =
            Some
              (fun ~epoch:_ ->
                if !occupant <> 0 then owner_died !occupant;
                occupant := 0);
          d_crash_one =
            Some
              (fun ~pid ->
                if !occupant = pid then begin
                  owner_died pid;
                  occupant := 0
                end);
        };
    }
  in
  let csr =
    {
      blank with
      m_entered =
        Some
          (fun ~pid ~epoch:_ ->
            if !csr_owner <> 0 then
              if !csr_owner = pid then begin
                incr csr_reentries;
                csr_owner := 0
              end
              else if check_csr then begin
                incr csr_violations;
                violation
                  (Printf.sprintf "CSR: p%d entered before crashed owner p%d"
                     pid !csr_owner)
              end);
      m_state =
        {
          Model_check.nothing with
          d_refs = [ ("csr-owner", csr_owner) ];
          d_counters =
            [
              ("csr-violations", csr_violations);
              ("csr-reentries", csr_reentries);
            ];
        };
    }
  in
  [ mutex; csr ]

let lost_update_monitor () : monitor_set =
 fun mem ~violation ->
  let counter = Memory.global mem ~name:"mc.protected" 0 in
  let cs_done = ref 0 in
  let lost_updates = ref 0 in
  let forgiven = ref 0 in
  let final_value = ref 0 in
  (* An increment a delayed-visibility fault (DESIGN.md §5.16) parked in
     its writer's store buffer: the writer and the value it wrote, or
     [held_by = 0]. A crash that hits before the buffer drains discards
     the write legally (it never reached NVRAM) while the exiting probe
     already counted the passage, which retries in the next epoch and
     increments again — so exactly that increment is forgiven. Only a
     fault parks a write, so a fault-free run forgives nothing and
     [explore], which injects no faults, never sets these refs. The
     writer's next operation drains its buffer, and under mutual
     exclusion another process reaches the CS only after the writer's
     exit, so the next increment's read settles the held one. *)
  let held_by = ref 0 and held = ref 0 in
  let settle () =
    if Memory.peek counter <> !held then incr forgiven;
    held_by := 0
  in
  [
    {
      blank with
      m_in_cs =
        Some
          (fun ~pid ~epoch:_ ->
            let v = Proc.read counter in
            held_by := 0;
            Proc.write counter (v + 1);
            if Memory.peek counter <> v + 1 then begin
              held_by := pid;
              held := v + 1
            end);
      m_exiting = Some (fun ~pid:_ ~epoch:_ -> incr cs_done);
      m_state =
        {
          Model_check.nothing with
          d_refs = [ ("cs-done", cs_done) ];
          d_counters =
            [
              ("lost-updates", lost_updates);
              ("cs-completions", cs_done);
              ("forgiven-updates", forgiven);
              ("protected-counter", final_value);
            ];
          d_restore_refs = [ ("held-by", held_by); ("held", held) ];
          d_crash = Some (fun ~epoch:_ -> if !held_by <> 0 then settle ());
          d_crash_one = Some (fun ~pid -> if !held_by = pid then settle ());
          d_finish =
            Some
              (fun () ->
                final_value := Memory.peek counter;
                let expected = !cs_done - !forgiven in
                if !final_value <> expected then begin
                  incr lost_updates;
                  violation
                    (Printf.sprintf "lost update: counter=%d, completions=%d"
                       !final_value expected)
                end);
        };
    };
  ]

let overtaking () : monitor_set =
 fun mem ~violation:_ ->
  let n = Memory.n mem in
  (* Per process: whether it is waiting in a super-passage (1 from its
     first arrival until it enters the CS; crashes do not end it), the
     CS entries by others since it began waiting, and its worst such
     count so far. *)
  let in_wait = Array.make (n + 1) 0 in
  let overtakes = Array.make (n + 1) 0 in
  let worst = Array.make (n + 1) 0 in
  let max_overtaking = ref 0 in
  [
    {
      blank with
      m_arriving =
        Some
          (fun ~pid ~epoch:_ ->
            if in_wait.(pid) = 0 then begin
              in_wait.(pid) <- 1;
              overtakes.(pid) <- 0
            end);
      m_entered =
        Some
          (fun ~pid ~epoch:_ ->
            for q = 1 to n do
              if q <> pid && in_wait.(q) = 1 then begin
                let o = overtakes.(q) + 1 in
                overtakes.(q) <- o;
                if o > worst.(q) then begin
                  worst.(q) <- o;
                  if o > !max_overtaking then max_overtaking := o
                end
              end
            done;
            in_wait.(pid) <- 0);
      m_state =
        {
          Model_check.nothing with
          d_arrays =
            [ ("in-wait", in_wait); ("overtakes", overtakes); ("worst", worst) ];
          d_counters = [ ("max-overtaking", max_overtaking) ];
        };
    };
  ]

let passage_stats () : monitor_set =
 fun mem ~violation:_ ->
  let n = Memory.n mem in
  let per_pid v = Array.make (n + 1) v in
  (* The current passage of each process: its RMR and step counts at
     arrival, the recover section's cost, the step count before exit,
     and its class. A crash abandons the passage; the next arrival
     overwrites all of it. *)
  let rmr0 = per_pid 0 and step0 = per_pid 0 in
  let recover_rmrs = per_pid 0 and recover_steps = per_pid 0 in
  let exit0 = per_pid 0 in
  let recovery = per_pid false and leader = per_pid false in
  (* The epoch of each process's last completed passage. A passage that
     starts a new epoch for its process (first boot or post-crash) is a
     recovery passage. Recovery-leader proxy: the first process to begin
     a passage in each epoch is the one that (in Transformation 1)
     typically wins the leader CAS and pays the base-lock reset;
     everyone else recovers as a non-leader. *)
  let last_epoch = per_pid min_int in
  let leader_epoch = ref min_int in
  let histograms =
    List.map
      (fun k -> (k, Stats.create ()))
      [
        "steady_rmrs"; "recovery_rmrs"; "leader_recovery_rmrs";
        "follower_recovery_rmrs"; "steady_recover_section_rmrs";
        "recovery_recover_section_rmrs"; "exit_steps"; "steady_recover_steps";
        "steady_passage_steps"; "recovery_passage_steps";
      ]
  in
  let add k v = Stats.add_int (List.assoc k histograms) v in
  [
    {
      blank with
      m_arriving =
        Some
          (fun ~pid ~epoch ->
            rmr0.(pid) <- Memory.rmrs mem ~pid;
            step0.(pid) <- Memory.steps mem ~pid;
            let r = last_epoch.(pid) <> epoch in
            let l = r && !leader_epoch <> epoch in
            recovery.(pid) <- r;
            leader.(pid) <- l;
            if l then leader_epoch := epoch);
      m_starting =
        Some
          (fun ~pid ~epoch:_ ->
            recover_rmrs.(pid) <- Memory.rmrs mem ~pid - rmr0.(pid);
            recover_steps.(pid) <- Memory.steps mem ~pid - step0.(pid));
      m_exiting = Some (fun ~pid ~epoch:_ -> exit0.(pid) <- Memory.steps mem ~pid);
      m_exited =
        Some
          (fun ~pid ~epoch ->
            let steps = Memory.steps mem ~pid in
            add "exit_steps" (steps - exit0.(pid));
            let passage_rmrs = Memory.rmrs mem ~pid - rmr0.(pid) in
            let passage_steps = steps - step0.(pid) in
            if recovery.(pid) then begin
              add "recovery_rmrs" passage_rmrs;
              add
                (if leader.(pid) then "leader_recovery_rmrs"
                 else "follower_recovery_rmrs")
                passage_rmrs;
              add "recovery_recover_section_rmrs" recover_rmrs.(pid);
              add "recovery_passage_steps" passage_steps
            end
            else begin
              add "steady_rmrs" passage_rmrs;
              add "steady_recover_section_rmrs" recover_rmrs.(pid);
              add "steady_recover_steps" recover_steps.(pid);
              add "steady_passage_steps" passage_steps
            end;
            last_epoch.(pid) <- epoch);
      m_state =
        {
          Model_check.nothing with
          d_histograms = histograms;
          d_restore_refs = [ ("leader-epoch", leader_epoch) ];
          d_restore_arrays = [ ("last-epoch", last_epoch) ];
        };
    };
  ]

let barrier_spec ~leader_of : monitor_set =
 fun _mem ~violation ->
  let leader_begun = ref (-1) in
  [
    {
      blank with
      m_starting =
        Some
          (fun ~pid ~epoch ->
            if pid = leader_of ~epoch then leader_begun := epoch);
      m_entered =
        Some
          (fun ~pid ~epoch ->
            if !leader_begun < epoch then
              violation
                (Printf.sprintf
                   "barrier spec (i): p%d's call returned in epoch %d before \
                    the leader began"
                   pid epoch));
      m_state =
        { Model_check.nothing with d_refs = [ ("leader-begun", leader_begun) ] };
    };
  ]

(* --- reusable workloads --- *)

let rme_passages ~passages ~make : workload =
 fun mem ->
  let lock = make mem in
  let completed = Array.make (Memory.n mem + 1) 0 in
  {
    w_arrays = [ ("completed", completed) ];
    w_body =
      (fun probes ~pid ~epoch ->
        while completed.(pid) < passages do
          probes.arriving ~pid ~epoch;
          lock.Rme.Rme_intf.recover ~pid ~epoch;
          probes.starting ~pid ~epoch;
          lock.Rme.Rme_intf.enter ~pid ~epoch;
          probes.entered ~pid ~epoch;
          probes.in_cs ~pid ~epoch;
          probes.exiting ~pid ~epoch;
          lock.Rme.Rme_intf.exit ~pid ~epoch;
          probes.exited ~pid ~epoch;
          completed.(pid) <- completed.(pid) + 1
        done);
  }

let rounds ~epochs ~leader_of ~make_enter : workload =
 fun mem ->
  let enter = make_enter mem in
  (* Rounds completed per process; a crash moves everyone to the next
     epoch, so processes whose round was interrupted retry it there. *)
  let completed = Array.make (Memory.n mem + 1) 0 in
  {
    w_arrays = [ ("completed", completed) ];
    w_body =
      (fun probes ~pid ~epoch ->
        while
          completed.(pid) < epochs
          && completed.(pid) < epoch (* at most one call per epoch *)
        do
          probes.starting ~pid ~epoch;
          let lid = leader_of ~epoch in
          enter ~pid ~epoch ~lid ~leader:(pid = lid);
          probes.entered ~pid ~epoch;
          completed.(pid) <- completed.(pid) + 1
        done);
  }

(* --- the four stock compositions ---

   {!Scenarios} re-exports them as [Model_check.scenario]s. Monitor
   order is [mutex; csr; lost-update]: the probe chains then run the ME
   check, the CSR check, the counter increment, the occupant clear and
   the cs_done bump in that order, which test/test_scenario.ml's pinned
   outcomes depend on. *)

let rme_lock ?(passages = 1) ?(check_csr = true) ~n ~model ~make () =
  v ~n ~model
    ~workload:(rme_passages ~passages ~make)
    ~monitors:[ mutex_monitors ~check_csr (); lost_update_monitor () ]

let mutex_lock ?passages ~n ~model ~make () =
  rme_lock ?passages ~check_csr:false ~n ~model
    ~make:(fun mem -> Rme.Rme_intf.of_mutex (make mem))
    ()

let barrier_rounds ?(epochs = 1) ~n ~model () =
  let leader_of ~epoch:_ = 1 in
  v ~n ~model
    ~workload:
      (rounds ~epochs ~leader_of ~make_enter:(fun mem ->
           let b = Rme.Barrier.create mem ~name:"mc.bar" in
           fun ~pid ~epoch ~lid:_ ~leader ->
             Rme.Barrier.enter b ~pid ~epoch ~leader))
    ~monitors:[ barrier_spec ~leader_of ]

let barrier_sub_rounds ?(lid = 1) ~n ~model () =
  let leader_of ~epoch:_ = lid in
  v ~n ~model
    ~workload:
      (rounds ~epochs:1 ~leader_of ~make_enter:(fun mem ->
           let b = Rme.Barrier_sub.create mem ~name:"mc.bsub" in
           fun ~pid ~epoch ~lid ~leader:_ ->
             Rme.Barrier_sub.enter b ~pid ~epoch ~lid))
    ~monitors:[ barrier_spec ~leader_of ]

(* --- seeded storms over a builder scenario --- *)

type storm_report = {
  st_trace : int array;
  st_steps : int;
  st_crashes : int;
  st_crash_ones : int;
  st_violations : string list;
  st_deadlock : bool;
  st_capped : bool;
  st_all_done : bool;
  st_counters : (string * int) list;
}

let counter report name =
  List.fold_left
    (fun acc (k, v) -> if k = name then acc + v else acc)
    0 report.st_counters

let storm ?(max_steps = 2_000_000) ?(delay_window = 8) ?(lost_wakeup_mean = 0)
    ?(delay_mean = 0) ~seed ~schedule t =
  let n = t.b_n in
  let rng = Random.State.make [| 0x5702; seed |] in
  let world = Model_check.world (to_scenario t) in
  (* Faults fire first (seeded Bernoulli, random victim; an inapplicable
     injection degrades to the default step inside [run_schedule_in]),
     then the crash/step schedule, then the default policy. *)
  let decide ~pos ~enabled ~default =
    if lost_wakeup_mean > 0 && Random.State.int rng lost_wakeup_mean = 0 then
      -(n + 1 + Random.State.int rng n)
    else if delay_mean > 0 && Random.State.int rng delay_mean = 0 then
      -((2 * n) + 1 + Random.State.int rng n)
    else
      match schedule ~clock:pos ~enabled with
      | Some (Schedule.Step pid) -> pid
      | Some Schedule.Crash -> Model_check.crash_decision
      | Some (Schedule.Crash_one pid) -> -pid
      | None -> default
  in
  let rp =
    Model_check.run_schedule_in ~max_steps ~delay_window ~decide world
  in
  Runtime.reset (Model_check.runtime world);
  {
    st_trace = rp.Model_check.rp_trace;
    st_steps = rp.rp_steps;
    st_crashes = rp.rp_crashes;
    st_crash_ones = rp.rp_crash_ones;
    st_violations = rp.rp_violations;
    st_deadlock = rp.rp_deadlock;
    st_capped = rp.rp_capped;
    st_all_done = (not rp.rp_deadlock) && not rp.rp_capped;
    st_counters = Model_check.counters world;
  }

(* --- the scenario registry ---

   One shared name table for every consumer: `rme_cli scenario
   list/describe/run`, `rme_cli model-check --scenario`, and the bench
   rosters. Builder-registered scenarios appear everywhere
   automatically. *)

type params = {
  sp_stack : string;
  sp_n : int;
  sp_model : Memory.model;
  sp_passages : int;
  sp_check_csr : bool;
  sp_crash_bound : int;
}

let default_params =
  {
    sp_stack = "t3-mcs";
    sp_n = 3;
    sp_model = Memory.Cc;
    sp_passages = 1;
    sp_check_csr = true;
    sp_crash_bound = 0;
  }

type info = { i_name : string; i_summary : string; i_needs_stack : bool }

let registry : (string, info * (params -> t)) Hashtbl.t =
  Hashtbl.create 16

let order : string list ref = ref []

let register ~name ~summary ~needs_stack build =
  if Hashtbl.mem registry name then
    invalid_arg ("Scenario.register: duplicate name " ^ name);
  Hashtbl.replace registry name
    ({ i_name = name; i_summary = summary; i_needs_stack = needs_stack }, build);
  order := name :: !order

let find name =
  Option.map snd (Hashtbl.find_opt registry name)

let info name = Option.map fst (Hashtbl.find_opt registry name)

let names () = List.rev !order

let infos () =
  List.map (fun name -> fst (Hashtbl.find registry name)) (names ())

let () =
  register ~name:"rme" ~summary:"ME + CSR + lost-update over a recoverable lock"
    ~needs_stack:true (fun p ->
      rme_lock ~passages:p.sp_passages ~check_csr:p.sp_check_csr ~n:p.sp_n
        ~model:p.sp_model
        ~make:(fun mem -> Rme.Stack.recoverable mem p.sp_stack)
        ());
  register ~name:"mutex"
    ~summary:"ME + lost-update over a conventional lock (crash-free only)"
    ~needs_stack:true (fun p ->
      mutex_lock ~passages:p.sp_passages ~n:p.sp_n ~model:p.sp_model
        ~make:(fun mem -> Rme.Stack.conventional mem p.sp_stack)
        ());
  register ~name:"barrier"
    ~summary:"Definition 3.1(i) for the unknown-leader barrier, once per epoch"
    ~needs_stack:false (fun p ->
      barrier_rounds ~epochs:(p.sp_crash_bound + 1) ~n:p.sp_n ~model:p.sp_model
        ());
  register ~name:"barrier-sub"
    ~summary:"Definition 3.1(i) for the known-leader subroutine barrier"
    ~needs_stack:false (fun p ->
      barrier_sub_rounds ~lid:1 ~n:p.sp_n ~model:p.sp_model ())
