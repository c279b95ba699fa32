open Sim

(* --- probes: the template points a workload exposes to monitors --- *)

type probes = {
  starting : pid:int -> epoch:int -> unit;
  entered : pid:int -> epoch:int -> unit;
  in_cs : pid:int -> epoch:int -> unit;
  exiting : pid:int -> epoch:int -> unit;
}

type monitor = {
  mon_name : string;
  m_starting : (pid:int -> epoch:int -> unit) option;
  m_entered : (pid:int -> epoch:int -> unit) option;
  m_in_cs : (pid:int -> epoch:int -> unit) option;
  m_exiting : (pid:int -> epoch:int -> unit) option;
  m_crashed : (epoch:int -> unit) option;
  m_crashed_one : (pid:int -> unit) option;
  m_finished : (unit -> unit) option;
  m_fp_refs : int ref list;
  m_fp_arrays : int array list;
  m_counters : (string * int ref) list;
}

let blank ~name =
  {
    mon_name = name;
    m_starting = None;
    m_entered = None;
    m_in_cs = None;
    m_exiting = None;
    m_crashed = None;
    m_crashed_one = None;
    m_finished = None;
    m_fp_refs = [];
    m_fp_arrays = [];
    m_counters = [];
  }

type monitor_set = Memory.t -> violation:(string -> unit) -> monitor list

type workload_inst = {
  w_arrays : int array list;
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

   Instantiation order is load-bearing for byte-identical fingerprints
   with the legacy hand-rolled scenarios: the workload allocates its
   shared cells first (the lock), monitors second (e.g. the protected
   counter) — the same Memory cell ids the legacy bodies produced — and
   the single fingerprint hook folds monitor refs (in monitor order)
   before workload/monitor arrays, reproducing the legacy
   [mix (mix ...)] chains via {!Encode.mix_refs}. *)

let nop ~pid:_ ~epoch:_ = ()

let assemble t ~capture mem (ctx : Model_check.ctx) =
  let w = t.b_workload mem in
  let mons =
    List.concat_map (fun ms -> ms mem ~violation:ctx.violation) t.b_monitors
  in
  (match capture with None -> () | Some c -> c := mons);
  (match List.filter_map (fun m -> m.m_crashed) mons with
  | [] -> ()
  | hs -> ctx.on_crash (fun ~epoch -> List.iter (fun h -> h ~epoch) hs));
  (match List.filter_map (fun m -> m.m_crashed_one) mons with
  | [] -> ()
  | hs -> ctx.on_crash_one (fun ~pid -> List.iter (fun h -> h ~pid) hs));
  (match List.filter_map (fun m -> m.m_finished) mons with
  | [] -> ()
  | hs -> ctx.on_finish (fun () -> List.iter (fun h -> h ()) hs));
  (* Every monitor verdict ref registers automatically — the DESIGN.md
     §5.13 footgun (a forgotten registration lets --reduce merge two
     monitor-distinct states and prune a violation) cannot happen here. *)
  let refs = List.concat_map (fun m -> m.m_fp_refs) mons in
  let arrays = List.concat_map (fun m -> m.m_fp_arrays) mons @ w.w_arrays in
  (* The same registration makes the scenario reusable in place: a reset
     memory puts every fingerprinted ref and array, and every counter,
     back to its value at assembly (DESIGN.md §5.14). *)
  let all_refs =
    refs @ List.concat_map (fun m -> List.map snd m.m_counters) mons
  in
  let ref_inits = List.map ( ! ) all_refs in
  let array_inits = List.map Array.copy arrays in
  Memory.on_reset mem (fun () ->
      List.iter2 ( := ) all_refs ref_inits;
      List.iter2 (fun a a0 -> Array.blit a0 0 a 0 (Array.length a0)) arrays
        array_inits);
  ctx.on_fingerprint (fun () ->
      List.fold_left Encode.mix_array
        (Encode.mix_refs Encode.fingerprint_seed refs)
        arrays);
  (* Permutation-aware split for --reduce sym (DESIGN.md §5.19): monitor
     refs fold into the residue (k = 0) — pid-valued refs like the
     occupant then pin the permutation, which only costs merges, never
     soundness — while the pid-indexed arrays contribute element [pid]
     to that process's orbit bundle (k >= 1), so per-process progress
     counters permute with the process. Arrays here are pid-indexed of
     length n+1 by contract (index 0 is folded into the residue with the
     refs). The legacy fold above is untouched: every level below [Sym]
     still sees the exact historical hash. *)
  ctx.on_sym_fingerprint (fun k ->
      if k = 0 then
        List.fold_left
          (fun h (a : int array) -> Encode.mix h a.(0))
          (Encode.mix_refs Encode.sym_seed refs)
          arrays
      else
        List.fold_left
          (fun h (a : int array) -> Encode.mix h a.(k))
          Encode.sym_seed arrays);
  let chain sel =
    match List.filter_map sel mons with
    | [] -> nop
    | [ h ] -> h
    | hs -> fun ~pid ~epoch -> List.iter (fun h -> h ~pid ~epoch) hs
  in
  let probes =
    {
      starting = chain (fun m -> m.m_starting);
      entered = chain (fun m -> m.m_entered);
      in_cs = chain (fun m -> m.m_in_cs);
      exiting = chain (fun m -> m.m_exiting);
    }
  in
  w.w_body probes

let to_scenario t =
  {
    Model_check.n = t.b_n;
    model = t.b_model;
    make_body = assemble t ~capture:None;
  }

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
      (blank ~name:"mutex") with
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
      m_crashed =
        Some
          (fun ~epoch:_ ->
            if !occupant <> 0 then owner_died !occupant;
            occupant := 0);
      m_crashed_one =
        Some
          (fun ~pid ->
            if !occupant = pid then begin
              owner_died pid;
              occupant := 0
            end);
      m_fp_refs = [ occupant ];
      m_counters = [ ("me-violations", me_violations) ];
    }
  in
  let csr =
    {
      (blank ~name:"csr") with
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
      m_fp_refs = [ csr_owner ];
      m_counters =
        [ ("csr-violations", csr_violations); ("csr-reentries", csr_reentries) ];
    }
  in
  [ mutex; csr ]

let lost_update_monitor () : monitor_set =
 fun mem ~violation ->
  let counter = Memory.global mem ~name:"mc.protected" 0 in
  let cs_done = ref 0 in
  let lost_updates = ref 0 in
  [
    {
      (blank ~name:"lost-update") with
      m_in_cs =
        Some
          (fun ~pid:_ ~epoch:_ ->
            let v = Proc.read counter in
            Proc.write counter (v + 1));
      m_exiting = Some (fun ~pid:_ ~epoch:_ -> incr cs_done);
      (* Crash resync: the increment and the [cs_done] count land in the
         same scheduler step, so for any ME-correct run [counter =
         cs_done] at every decision point and this assignment is a
         no-op — fingerprints, parity pins and baselines are untouched.
         Its purpose is the delayed-visibility fault (DESIGN.md §5.16):
         an increment sitting in the store buffer when a crash hits is
         legally discarded (it never reached NVRAM) while the exiting
         probe already counted the passage — the passage retries in the
         next epoch and re-increments, so without the resync the final
         tally reports a phantom lost update (seen first on the jjj-cc
         faulty gauntlet; t1-mcs/t3-mcs reproduce it on other seeds). *)
      m_crashed = Some (fun ~epoch:_ -> cs_done := Memory.peek counter);
      m_crashed_one = Some (fun ~pid:_ -> cs_done := Memory.peek counter);
      m_finished =
        Some
          (fun () ->
            if Memory.peek counter <> !cs_done then begin
              incr lost_updates;
              violation
                (Printf.sprintf "lost update: counter=%d, completions=%d"
                   (Memory.peek counter) !cs_done)
            end);
      m_fp_refs = [ cs_done ];
      m_counters = [ ("lost-updates", lost_updates) ];
    };
  ]

let barrier_spec ~leader_of : monitor_set =
 fun _mem ~violation ->
  let leader_begun = ref (-1) in
  [
    {
      (blank ~name:"barrier-spec") with
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
      m_fp_refs = [ leader_begun ];
    };
  ]

(* --- reusable workloads --- *)

let rme_passages ~passages ~make : workload =
 fun mem ->
  let lock = make mem in
  let completed = Array.make (Memory.n mem + 1) 0 in
  {
    w_arrays = [ completed ];
    w_body =
      (fun probes ~pid ~epoch ->
        while completed.(pid) < passages do
          lock.Rme.Rme_intf.recover ~pid ~epoch;
          probes.starting ~pid ~epoch;
          lock.Rme.Rme_intf.enter ~pid ~epoch;
          probes.entered ~pid ~epoch;
          probes.in_cs ~pid ~epoch;
          probes.exiting ~pid ~epoch;
          lock.Rme.Rme_intf.exit ~pid ~epoch;
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
    w_arrays = [ completed ];
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

   Builder forms of the legacy hand-rolled scenarios; {!Scenarios}
   re-exports them as [Model_check.scenario]s. Monitor order is
   [mutex; csr; lost-update] so the probe chains replay the legacy
   bodies' exact statement order (ME check, CSR check, counter
   increment, occupant clear, cs_done bump). *)

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
  let captured = ref [] in
  let sc =
    {
      Model_check.n = t.b_n;
      model = t.b_model;
      make_body = assemble t ~capture:(Some captured);
    }
  in
  (* Faults fire first (seeded Bernoulli, random victim; an inapplicable
     injection degrades to the default step inside [run_schedule]), then
     the crash/step schedule, then the default policy. *)
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
  let rp = Model_check.run_schedule ~max_steps ~delay_window ~decide sc in
  {
    st_trace = rp.Model_check.rp_trace;
    st_steps = rp.rp_steps;
    st_crashes = rp.rp_crashes;
    st_crash_ones = rp.rp_crash_ones;
    st_violations = rp.rp_violations;
    st_deadlock = rp.rp_deadlock;
    st_capped = rp.rp_capped;
    st_all_done = (not rp.rp_deadlock) && not rp.rp_capped;
    st_counters =
      List.concat_map
        (fun m -> List.map (fun (k, r) -> (k, !r)) m.m_counters)
        !captured;
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

let registry : (string, info * (params -> Model_check.scenario)) Hashtbl.t =
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
      to_scenario
        (rme_lock ~passages:p.sp_passages ~check_csr:p.sp_check_csr ~n:p.sp_n
           ~model:p.sp_model
           ~make:(fun mem -> Rme.Stack.recoverable mem p.sp_stack)
           ()));
  register ~name:"mutex"
    ~summary:"ME + lost-update over a conventional lock (crash-free only)"
    ~needs_stack:true (fun p ->
      to_scenario
        (mutex_lock ~passages:p.sp_passages ~n:p.sp_n ~model:p.sp_model
           ~make:(fun mem -> Rme.Stack.conventional mem p.sp_stack)
           ()));
  register ~name:"barrier"
    ~summary:"Definition 3.1(i) for the unknown-leader barrier, once per epoch"
    ~needs_stack:false (fun p ->
      to_scenario
        (barrier_rounds ~epochs:(p.sp_crash_bound + 1) ~n:p.sp_n
           ~model:p.sp_model ()));
  register ~name:"barrier-sub"
    ~summary:"Definition 3.1(i) for the known-leader subroutine barrier"
    ~needs_stack:false (fun p ->
      to_scenario (barrier_sub_rounds ~lid:1 ~n:p.sp_n ~model:p.sp_model ()))
