(* Tests for the model checker itself: that it finds planted safety and
   liveness bugs, honours its budgets, and explores deterministically. *)

open Sim
open Testutil

(* A "lock" that provides no exclusion at all. *)
let broken_lock _mem : Rme.Rme_intf.rme =
  {
    Rme.Rme_intf.name = "broken";
    recover = (fun ~pid:_ ~epoch:_ -> ());
    enter = (fun ~pid:_ ~epoch:_ -> ());
    exit = (fun ~pid:_ ~epoch:_ -> ());
  }

(* A lock whose release omits the hand-off: the second process deadlocks. *)
let leaky_lock mem : Rme.Rme_intf.rme =
  let flag = Memory.global mem ~name:"leak.flag" 0 in
  {
    Rme.Rme_intf.name = "leaky";
    recover = (fun ~pid:_ ~epoch:_ -> ());
    enter =
      (fun ~pid:_ ~epoch:_ ->
        ignore (Proc.await flag ~until:(fun v -> v = 0));
        Proc.write flag 1);
    exit = (fun ~pid:_ ~epoch:_ -> () (* never releases *));
  }

let finds_mutual_exclusion_bug () =
  let sc = Harness.Scenarios.rme ~n:2 ~model:Memory.Cc ~make:broken_lock () in
  let o = Harness.Model_check.explore ~divergence_bound:1 ~stop_on_first:true sc in
  Alcotest.(check bool)
    "found" true
    (List.exists
       (fun v ->
         (* either the occupancy monitor or the lost-update counter trips *)
         String.length v >= 4
         && (String.sub v 0 4 = "mutu" || String.sub v 0 4 = "lost"))
       o.Harness.Model_check.violations)

let finds_deadlock () =
  let sc = Harness.Scenarios.rme ~n:2 ~model:Memory.Cc ~make:leaky_lock () in
  let o = Harness.Model_check.explore ~divergence_bound:0 ~stop_on_first:true sc in
  Alcotest.(check bool) "deadlock" true (o.Harness.Model_check.deadlocks > 0)

let zero_divergence_zero_crash_is_one_run () =
  let sc =
    Harness.Scenarios.rme ~n:3 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t1-mcs")
      ()
  in
  let o = Harness.Model_check.explore ~divergence_bound:0 ~crash_bound:0 sc in
  Alcotest.(check int) "one run" 1 o.Harness.Model_check.runs;
  Alcotest.(check bool) "no violations" true (o.Harness.Model_check.violations = [])

let crash_bound_expands_search () =
  let explore crash_bound =
    let sc =
      Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
        ~make:(fun mem -> Rme.Stack.recoverable mem "t1-mcs")
        ()
    in
    (Harness.Model_check.explore ~divergence_bound:0 ~crash_bound sc)
      .Harness.Model_check.runs
  in
  let r0 = explore 0 and r1 = explore 1 and r2 = explore 2 in
  Alcotest.(check bool) "c1 > c0" true (r1 > r0);
  Alcotest.(check bool) "c2 > c1" true (r2 > r1)

let deterministic () =
  let go () =
    let sc =
      Harness.Scenarios.rme ~n:2 ~model:Memory.Dsm
        ~make:(fun mem -> Rme.Stack.recoverable mem "t2-mcs")
        ()
    in
    let o = Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1 sc in
    (o.Harness.Model_check.runs, o.Harness.Model_check.steps)
  in
  Alcotest.(check bool) "two identical searches" true (go () = go ())

let max_runs_truncates () =
  let sc =
    Harness.Scenarios.rme ~passages:2 ~n:3 ~model:Memory.Dsm
      ~make:(fun mem -> Rme.Stack.recoverable mem "t3-mcs")
      ()
  in
  let o =
    Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:1 ~max_runs:50
      sc
  in
  Alcotest.(check bool) "truncated" true o.Harness.Model_check.truncated;
  Alcotest.(check int) "runs capped" 50 o.Harness.Model_check.runs

let violation_messages_deduplicated () =
  let sc = Harness.Scenarios.rme ~n:2 ~model:Memory.Cc ~make:broken_lock () in
  let o = Harness.Model_check.explore ~divergence_bound:2 sc in
  let sorted = List.sort_uniq compare o.Harness.Model_check.violations in
  Alcotest.(check int)
    "no duplicates"
    (List.length sorted)
    (List.length o.Harness.Model_check.violations)

(* --- state-space reduction (DESIGN.md §5.13) --- *)

let levels =
  [
    Harness.Model_check.No_reduction;
    Harness.Model_check.Dedup;
    Harness.Model_check.Por;
    Harness.Model_check.Sym;
  ]

let level_name = Harness.Model_check.reduction_to_string

(* The reduction contract: pruning must never change what the search
   concludes. Every clean scenario stays clean at every level, and the
   run count never grows. *)
let reduction_preserves_clean_verdicts () =
  let roster =
    [
      ( "t2-mcs-n2-d1c1",
        fun ~reduction ->
          Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1
            ~reduction
            (Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
               ~make:(fun mem -> Rme.Stack.recoverable mem "t2-mcs")
               ()) );
      ( "fasas-clh-n2-d1co1",
        fun ~reduction ->
          Harness.Model_check.explore ~divergence_bound:1 ~crash_one_bound:1
            ~reduction
            (Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
               ~make:(fun mem -> Rme.Stack.recoverable mem "rclh-fasas")
               ()) );
      ( "barrier-n2-2epochs-d1c1",
        fun ~reduction ->
          Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1
            ~reduction
            (Harness.Scenarios.barrier ~epochs:2 ~n:2 ~model:Memory.Dsm ()) );
      (* The successor locks (DESIGN.md §5.18): no CSR by design, so the
         CSR monitor is off — the scenario still runs the builder's full
         ME/lost-update monitor set and fingerprint fold. *)
      ( "jjj-cc-n2-d1c1",
        fun ~reduction ->
          Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1
            ~reduction
            (Harness.Scenarios.rme ~check_csr:false ~n:2 ~model:Memory.Cc
               ~make:(fun mem -> Rme.Stack.recoverable mem "jjj-cc")
               ()) );
      ( "jjj-dsm-n2-d1c1",
        fun ~reduction ->
          Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1
            ~reduction
            (Harness.Scenarios.rme ~check_csr:false ~n:2 ~model:Memory.Dsm
               ~make:(fun mem -> Rme.Stack.recoverable mem "jjj-dsm")
               ()) );
    ]
  in
  List.iter
    (fun (name, f) ->
      let base = f ~reduction:Harness.Model_check.No_reduction in
      Alcotest.(check (list string))
        (name ^ " none clean") [] base.Harness.Model_check.violations;
      List.iter
        (fun reduction ->
          let o = f ~reduction in
          let what = Printf.sprintf "%s %s" name (level_name reduction) in
          Alcotest.(check (list string))
            (what ^ ": verdict") [] o.Harness.Model_check.violations;
          Alcotest.(check int)
            (what ^ ": deadlocks") 0 o.Harness.Model_check.deadlocks;
          Alcotest.(check bool)
            (what ^ ": runs never grow") true
            (o.Harness.Model_check.runs <= base.Harness.Model_check.runs))
        [
          Harness.Model_check.Dedup;
          Harness.Model_check.Por;
          Harness.Model_check.Sym;
        ])
    roster

(* ... and every planted bug must still be found at every level. *)
let broken_lock_flagged_at_every_level () =
  List.iter
    (fun reduction ->
      let sc =
        Harness.Scenarios.rme ~n:2 ~model:Memory.Cc ~make:broken_lock ()
      in
      let o =
        Harness.Model_check.explore ~divergence_bound:1 ~reduction
          ~stop_on_first:true sc
      in
      Alcotest.(check bool)
        (level_name reduction ^ " finds ME bug")
        true
        (o.Harness.Model_check.violations <> []))
    levels

let leaky_lock_flagged_at_every_level () =
  List.iter
    (fun reduction ->
      let sc =
        Harness.Scenarios.rme ~n:2 ~model:Memory.Cc ~make:leaky_lock ()
      in
      let o =
        Harness.Model_check.explore ~divergence_bound:0 ~reduction
          ~stop_on_first:true sc
      in
      Alcotest.(check bool)
        (level_name reduction ^ " finds deadlock")
        true
        (o.Harness.Model_check.deadlocks > 0))
    levels

let csr_ablation_flagged_at_every_level () =
  List.iter
    (fun reduction ->
      let sc =
        Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
          ~make:(fun mem -> Rme.Stack.recoverable mem "t1-mcs")
          ()
      in
      let o =
        Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:1
          ~reduction ~stop_on_first:true sc
      in
      Alcotest.(check bool)
        (level_name reduction ^ " finds T1 CSR violation")
        true
        (o.Harness.Model_check.violations <> []))
    levels

(* Reduced searches are fully deterministic: two executions agree on
   every count, not only on the verdict. *)
let reduced_search_deterministic_sequential () =
  List.iter
    (fun reduction ->
      let go () =
        let sc =
          Harness.Scenarios.rme ~n:2 ~model:Memory.Dsm
            ~make:(fun mem -> Rme.Stack.recoverable mem "t2-mcs")
            ()
        in
        let o =
          Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1
            ~reduction sc
        in
        ( o.Harness.Model_check.runs,
          o.Harness.Model_check.steps,
          o.Harness.Model_check.distinct_states,
          o.Harness.Model_check.pruned_runs,
          o.Harness.Model_check.pruned_branches,
          o.Harness.Model_check.violations )
      in
      Alcotest.(check bool)
        (level_name reduction ^ " identical twice")
        true
        (go () = go ()))
    levels

let no_reduction_reports_zero_counters () =
  let sc =
    Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t1-mcs")
      ()
  in
  let o = Harness.Model_check.explore ~divergence_bound:1 sc in
  Alcotest.(check int) "states" 0 o.Harness.Model_check.distinct_states;
  Alcotest.(check int) "pruned runs" 0 o.Harness.Model_check.pruned_runs;
  Alcotest.(check int) "pruned branches" 0 o.Harness.Model_check.pruned_branches

let reduction_actually_prunes () =
  let explore reduction =
    Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:1 ~reduction
      (Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
         ~make:(fun mem -> Rme.Stack.recoverable mem "t2-mcs")
         ())
  in
  let none = explore Harness.Model_check.No_reduction in
  let dedup = explore Harness.Model_check.Dedup in
  let por = explore Harness.Model_check.Por in
  let sym = explore Harness.Model_check.Sym in
  Alcotest.(check bool)
    "dedup < none" true
    (dedup.Harness.Model_check.runs < none.Harness.Model_check.runs);
  Alcotest.(check bool)
    "por <= dedup" true
    (por.Harness.Model_check.runs <= dedup.Harness.Model_check.runs);
  Alcotest.(check bool)
    "sym <= por" true
    (sym.Harness.Model_check.runs <= por.Harness.Model_check.runs);
  Alcotest.(check bool)
    "por skipped branches" true
    (por.Harness.Model_check.pruned_branches > 0);
  Alcotest.(check bool)
    "states recorded" true
    (dedup.Harness.Model_check.distinct_states > 0)

(* The symmetry quotient must actually merge pid-permuted states: on a
   symmetric workload (every process runs the identical mutex passage)
   the canonical-orbit fingerprint maps permutation-related states to
   one representative, so the distinct-state count drops strictly below
   POR's — while the verdict stays clean. *)
let sym_quotients_symmetric_states () =
  let explore reduction =
    Harness.Model_check.explore ~divergence_bound:2 ~reduction
      (Harness.Scenarios.mutex ~n:4 ~model:Memory.Cc
         ~make:(fun mem -> Rme.Stack.conventional mem "mcs")
         ())
  in
  let por = explore Harness.Model_check.Por in
  let sym = explore Harness.Model_check.Sym in
  Alcotest.(check (list string)) "por clean" [] por.Harness.Model_check.violations;
  Alcotest.(check (list string)) "sym clean" [] sym.Harness.Model_check.violations;
  Alcotest.(check bool)
    "sym states < por states" true
    (sym.Harness.Model_check.distinct_states
    < por.Harness.Model_check.distinct_states);
  Alcotest.(check bool)
    "sym runs < por runs" true
    (sym.Harness.Model_check.runs < por.Harness.Model_check.runs)

(* Sym keys a pid's cells by their per-owner allocation slot, so a cell
   no passage touches but that is allocated for pid 1 alone (an index-0
   cell homed at 1) keeps pid 1 out of every orbit. A CC Barrier
   allocates no such cell, so on T1(MCS) without the CSR monitor the
   quotient must merge states. *)
let sym_quotients_t1_cc () =
  let explore reduction =
    Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:1 ~reduction
      (Harness.Scenarios.rme ~check_csr:false ~n:2 ~model:Memory.Cc
         ~make:(fun mem -> Rme.Stack.recoverable mem "t1-mcs")
         ())
  in
  let por = explore Harness.Model_check.Por in
  let sym = explore Harness.Model_check.Sym in
  Alcotest.(check (list string)) "por clean" [] por.Harness.Model_check.violations;
  Alcotest.(check (list string)) "sym clean" [] sym.Harness.Model_check.violations;
  Alcotest.(check bool)
    (Printf.sprintf "sym states (%d) < por states (%d)"
       sym.Harness.Model_check.distinct_states
       por.Harness.Model_check.distinct_states)
    true
    (sym.Harness.Model_check.distinct_states
    < por.Harness.Model_check.distinct_states)

(* Crash state must stay inside the orbit computation: the T1(MCS) CSR
   violation (which needs a crash inside the CS and a pid-asymmetric
   follow-up) must survive the quotient, with and without the sleep-set
   layer's branch suppression. *)
let sym_preserves_crash_violations () =
  let sc =
    Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t1-mcs")
      ()
  in
  let o =
    Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:1
      ~reduction:Harness.Model_check.Sym ~stop_on_first:true sc
  in
  Alcotest.(check bool)
    "sym finds the CSR violation" true
    (o.Harness.Model_check.violations <> [])

(* Bitstate mode can only under-explore (a probe-bit collision prunes
   like a fingerprint collision), never fabricate: runs never exceed the
   exhaustive enumeration's, clean scenarios stay clean, and the outcome
   reports a finite occupancy and collision bound. (Counts are NOT
   comparable against the exact-mode reduced search: bitstate forces
   key-mix budget coding, so its "distinct states" are state x budget
   pairs while exact closure coding counts states — the honest
   under-report contract is pinned per-key in test_parallel.ml.) *)
let bitstate_underreports_never_fabricates () =
  let sc () =
    Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t2-mcs")
      ()
  in
  let none =
    Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1 (sc ())
  in
  List.iter
    (fun reduction ->
      let exact =
        Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1
          ~reduction (sc ())
      in
      let bit =
        Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1
          ~reduction
          ~vset_mode:(Harness.Model_check.Bitstate { bits = 18; salt = 0 })
          (sc ())
      in
      let what s = level_name reduction ^ " " ^ s in
      Alcotest.(check (list string))
        (what "bitstate clean") [] bit.Harness.Model_check.violations;
      Alcotest.(check bool)
        (what "bitstate runs <= exhaustive") true
        (bit.Harness.Model_check.runs <= none.Harness.Model_check.runs);
      Alcotest.(check bool)
        (what "bitstate actually prunes") true
        (bit.Harness.Model_check.pruned_runs > 0);
      (match bit.Harness.Model_check.bitstate_occupancy with
      | Some occ -> Alcotest.(check bool) (what "occupancy finite+positive")
          true (Float.is_finite occ && occ > 0.)
      | None -> Alcotest.fail (what "occupancy missing"));
      (match bit.Harness.Model_check.collision_bound with
      | Some b -> Alcotest.(check bool) (what "collision bound finite")
          true (Float.is_finite b && b >= 0. && b < 1.)
      | None -> Alcotest.fail (what "collision bound missing"));
      Alcotest.(check (option Alcotest.(pair (float 0.) (float 0.))))
        (what "exact mode reports no occupancy")
        None
        (match
           ( exact.Harness.Model_check.bitstate_occupancy,
             exact.Harness.Model_check.collision_bound )
         with
        | Some a, Some b -> Some (a, b)
        | _ -> None))
    [ Harness.Model_check.Dedup; Harness.Model_check.Sym ];
  (* A generously sized bit array misses nothing on this small space, so
     the planted CSR violation must still be found under bitstate. *)
  let o =
    Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:1
      ~reduction:Harness.Model_check.Sym
      ~vset_mode:(Harness.Model_check.Bitstate { bits = 20; salt = 7 })
      ~stop_on_first:true
      (Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
         ~make:(fun mem -> Rme.Stack.recoverable mem "t1-mcs")
         ())
  in
  Alcotest.(check bool)
    "bitstate sym still finds the CSR violation" true
    (o.Harness.Model_check.violations <> [])

(* Budget bounds whose clamped vector space exceeds one word fall back to
   mixing the budget vector into the fingerprint key (Key_mix). 8*8 = 64
   > 62 forces the fallback; the (truncated) search must still prune and
   stay clean. epochs = crash_bound + 1, as everywhere: a barrier whose
   leader can run out of rounds while a follower still has one to retry
   deadlocks by construction. *)
let key_mix_fallback_still_sound () =
  let o =
    Harness.Model_check.explore ~divergence_bound:7 ~crash_bound:7
      ~max_runs:2_000 ~reduction:Harness.Model_check.Dedup
      (Harness.Scenarios.barrier ~epochs:8 ~n:2 ~model:Memory.Cc ())
  in
  Alcotest.(check (list string)) "clean" [] o.Harness.Model_check.violations;
  Alcotest.(check bool)
    "still prunes" true
    (o.Harness.Model_check.pruned_runs > 0)

(* Minor words per explored step of a small replay search (t2-mcs n=2,
   one divergence, one crash, no reduction; 1,189 runs of ~49 steps).
   The scheduler keeps its per-step bookkeeping in the world's int
   buffers and the runtime stores a step's suspension unboxed, so what
   a step allocates is mostly the effect suspension itself: 19.9 words
   per step. The bound leaves 50% headroom and fails a scheduler that
   conses per step (68.9 words when the trace, the runnable list and
   the choice points were lists). Calibrated on OCaml 5.1.1 only;
   another compiler may allocate differently. *)
let words_per_step_bound = 30.

let replay_words_per_step () =
  let sc =
    Harness.Scenarios.rme ~n:2 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t2-mcs")
      ()
  in
  let before = Gc.minor_words () in
  let o = Harness.Model_check.explore ~divergence_bound:1 ~crash_bound:1 sc in
  let words = Gc.minor_words () -. before in
  let per_step = words /. float o.Harness.Model_check.steps in
  if per_step > words_per_step_bound then
    Alcotest.failf "%d steps allocated %.0f minor words (%.1f/step), bound %.0f"
      o.Harness.Model_check.steps words per_step words_per_step_bound

(* Resident set size in kB, or [None] where /proc/self/status is
   unreadable. *)
let vm_rss_kb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
    let rec find () =
      match input_line ic with
      | exception End_of_file -> None
      | line -> (
        match Scanf.sscanf line "VmRSS: %d" Fun.id with
        | kb -> Some kb
        | exception _ -> find ())
    in
    let kb = find () in
    close_in ic;
    kb

(* Repeated searches do not grow the process: every run's suspended
   fibers are discontinued at reset and at the end of the search, so
   their stacks go back to the domain's stack cache. Four searches of
   t2-mcs n=3 d2 c1 under sym (13,908 runs each) grew VmRSS by ~28 MB
   from the first to the fourth while pruned runs dropped their fibers;
   the bound is 6 MB. *)
let rss_growth_bound_kb = 6 * 1024

let repeated_searches_keep_rss () =
  let sc =
    Harness.Scenarios.rme ~n:3 ~model:Memory.Cc
      ~make:(fun mem -> Rme.Stack.recoverable mem "t2-mcs")
      ()
  in
  let search () =
    ignore
      (Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:1
         ~reduction:Harness.Model_check.Sym sc);
    vm_rss_kb ()
  in
  match search () with
  | None -> Alcotest.skip ()
  | Some first ->
    ignore (search ());
    ignore (search ());
    (match search () with
    | Some fourth when fourth - first >= rss_growth_bound_kb ->
      Alcotest.failf "VmRSS grew %d kB over three more searches (bound %d kB)"
        (fourth - first) rss_growth_bound_kb
    | Some _ | None -> ())

(* The benchmark's two searches (perfbench/WORKLOADS.md), pinned here so
   that a replay change which moves them fails the test suite, not only
   the benchmark: mc-replay is t2-mcs n=2 CC, two divergences, one
   crash, no reduction; mc-sym the same at n=3 under [Sym]. *)
let t2_mcs n =
  Harness.Scenarios.rme ~n ~model:Memory.Cc
    ~make:(fun mem -> Rme.Stack.recoverable mem "t2-mcs")
    ()

let pinned what (o : Harness.Model_check.outcome) ~runs ~steps ~states =
  let open Harness.Model_check in
  Alcotest.(check (list string)) (what ^ ": clean") [] o.violations;
  Alcotest.(check bool) (what ^ ": not truncated") false o.truncated;
  Alcotest.(check int) (what ^ ": runs") runs o.runs;
  Alcotest.(check int) (what ^ ": steps") steps o.steps;
  Alcotest.(check int) (what ^ ": states") states o.distinct_states

let mc_replay_counts () =
  pinned "mc-replay"
    (Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:1 (t2_mcs 2))
    ~runs:18_046 ~steps:916_667 ~states:0

let mc_sym_counts () =
  pinned "mc-sym"
    (Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:1
       ~reduction:Harness.Model_check.Sym (t2_mcs 3))
    ~runs:13_908 ~steps:554_098 ~states:85_578

(* Unreduced searches whose runs mostly have their divergence budget
   spent, which [replay] steps straight (one [Runtime.step_productive]
   per default segment, no choice points): every verdict-bearing field
   of the outcome, with the violations and the witness as digests, as
   the per-step loop produced them. The roster covers deadlocks, CSR
   violations with and without [stop_on_first], independent crashes,
   DSM, a [max_runs] truncation, a conventional mutex, the barrier and a
   step cap hit inside a straight segment. The two t3-mcs-literal
   searches with crash budget are the only ones whose deadlocked runs
   have crash children: since those children crash instead of
   re-reporting the deadlock, n=2 d1 c1 reads 55 deadlocks, not 60, and
   132,587 steps, not 132,442; n=2 d2 c2 reads 1,368 deadlocks, not
   1,420. *)
let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 12

let outcome_summary (o : Harness.Model_check.outcome) =
  let open Harness.Model_check in
  Printf.sprintf
    "runs=%d steps=%d deadlocks=%d cap-hits=%d truncated=%b violations=%d:%s \
     witness=%s"
    o.runs o.steps o.deadlocks o.step_cap_hits o.truncated
    (List.length o.violations)
    (digest (String.concat "\n" o.violations))
    (match o.witness with
    | None -> "none"
    | Some w ->
      Printf.sprintf "%d:%s" (Array.length w)
        (digest (String.concat "," (Array.to_list (Array.map string_of_int w)))))

let straight_search ?(model = Memory.Cc) ?(c = 0) ?(co = 0) ?(stop = false)
    ?max_steps ~d sc expected () =
  let o =
    Harness.Model_check.explore ~divergence_bound:d ~crash_bound:c
      ~crash_one_bound:co ~stop_on_first:stop ?max_steps (sc model)
  in
  Alcotest.(check string) "outcome" expected (outcome_summary o)

let rme_sc ?check_csr stack n model =
  Harness.Scenarios.rme ?check_csr ~n ~model
    ~make:(fun mem -> Rme.Stack.recoverable mem stack)
    ()

let mutex_sc lock n model =
  Harness.Scenarios.mutex ~n ~model
    ~make:(fun mem -> Rme.Stack.conventional mem lock)
    ()

let straight_runs =
  [
    case "t3-mcs-literal n=3 d2"
      (straight_search ~d:2 (rme_sc "t3-mcs-literal" 3)
         "runs=2420 steps=156387 deadlocks=300 cap-hits=0 truncated=false \
          violations=4:a8ee508fb91f witness=55:c7d79adce1ce");
    case "t3-mcs-literal n=2 d1 c1"
      (straight_search ~d:1 ~c:1 (rme_sc "t3-mcs-literal" 2)
         "runs=2065 steps=132587 deadlocks=55 cap-hits=0 truncated=false \
          violations=1:512439141d02 witness=34:b7fac511e79e");
    slow_case "t3-mcs-literal n=2 d2 c2"
      (straight_search ~d:2 ~c:2 (rme_sc "t3-mcs-literal" 2)
         "runs=200000 steps=14995445 deadlocks=1368 cap-hits=0 truncated=true \
          violations=2:d047e8b0ad16 witness=36:17dd412d5ecb");
    case "t1-mcs n=2 d2 c1"
      (straight_search ~d:2 ~c:1 (rme_sc "t1-mcs" 2)
         "runs=3455 steps=98871 deadlocks=0 cap-hits=0 truncated=false \
          violations=2:ea287ad7dd98 witness=26:fb3df448f6e6");
    case "t1-mcs n=2 d2 c1 stop-on-first"
      (straight_search ~d:2 ~c:1 ~stop:true (rme_sc "t1-mcs" 2)
         "runs=245 steps=5912 deadlocks=0 cap-hits=0 truncated=true \
          violations=1:9d47277f78a7 witness=26:fb3df448f6e6");
    case "t1-mcs n=2 d0 co1 no-csr"
      (straight_search ~d:0 ~co:1 (rme_sc ~check_csr:false "t1-mcs" 2)
         "runs=37 steps=701 deadlocks=10 cap-hits=0 truncated=false \
          violations=3:5cf56710cec8 witness=5:8eb7bd74e9d3");
    slow_case "t2-mcs dsm n=2 d1 c2"
      (straight_search ~model:Memory.Dsm ~d:1 ~c:2 (rme_sc "t2-mcs" 2)
         "runs=196855 steps=20401169 deadlocks=0 cap-hits=0 truncated=false \
          violations=0:d41d8cd98f00 witness=none");
    slow_case "t3-mcs dsm n=2 d1 c2"
      (straight_search ~model:Memory.Dsm ~d:1 ~c:2 (rme_sc "t3-mcs" 2)
         "runs=200000 steps=28352051 deadlocks=0 cap-hits=0 truncated=true \
          violations=0:d41d8cd98f00 witness=none");
    case "rclh-fasas n=2 d1 co2"
      (straight_search ~d:1 ~co:2 (rme_sc "rclh-fasas" 2)
         "runs=135067 steps=7712618 deadlocks=0 cap-hits=0 truncated=false \
          violations=0:d41d8cd98f00 witness=none");
    case "jjj-cc n=2 d2 c1"
      (straight_search ~d:2 ~c:1 (rme_sc "jjj-cc" 2)
         "runs=3671 steps=106684 deadlocks=0 cap-hits=0 truncated=false \
          violations=2:ea287ad7dd98 witness=27:c1cda80b0115");
    case "jjj-dsm dsm n=2 d2 c1"
      (straight_search ~model:Memory.Dsm ~d:2 ~c:1 (rme_sc "jjj-dsm" 2)
         "runs=26047 steps=1462041 deadlocks=0 cap-hits=0 truncated=false \
          violations=2:ea287ad7dd98 witness=58:f2ad63aaed14");
    case "t3-mcs n=3 d1 c1"
      (straight_search ~d:1 ~c:1 (rme_sc "t3-mcs" 3)
         "runs=7722 steps=663508 deadlocks=0 cap-hits=0 truncated=false \
          violations=0:d41d8cd98f00 witness=none");
    case "mutex mcs n=3 d2"
      (straight_search ~d:2 (mutex_sc "mcs" 3)
         "runs=196 steps=4492 deadlocks=0 cap-hits=0 truncated=false \
          violations=0:d41d8cd98f00 witness=none");
    case "barrier n=3 d2 c1"
      (straight_search ~d:2 ~c:1
         (fun model -> Harness.Scenarios.barrier ~epochs:2 ~n:3 ~model ())
         "runs=114 steps=953 deadlocks=0 cap-hits=0 truncated=false \
          violations=0:d41d8cd98f00 witness=none");
    case "mutex tas n=2 d1 cap 40"
      (straight_search ~d:1 ~max_steps:40 (mutex_sc "tas" 2)
         "runs=5 steps=136 deadlocks=0 cap-hits=3 truncated=false \
          violations=1:744d005674bc witness=40:a260f5f1fa1a");
  ]

(* A crash branched off a deadlock runs. Process 1 spins forever in
   epoch 1 and returns at once in any later epoch. The crash hooks
   report a crash only while process 1 is parked at its await, which
   only the children branched off a deadlock reach: the crash child
   must crash (and finish), the crash-one child must restart process 1,
   deadlock again and then crash. *)
let crash_follows_deadlock () =
  let sc =
    {
      Harness.Model_check.n = 1;
      model = Memory.Cc;
      build =
        (fun mem ~violation ->
          let x = Memory.global mem ~name:"x" 0 in
          let parked = ref 0 in
          let crashed what =
            if !parked = 1 then violation (what ^ " after deadlock ran");
            parked := 0
          in
          ( (fun ~pid:_ ~epoch ->
              if epoch = 1 then begin
                parked := 1;
                ignore (Proc.await x ~until:(fun v -> v = 1))
              end),
            [
              {
                Harness.Model_check.nothing with
                d_restore_refs = [ ("parked", parked) ];
                d_crash = Some (fun ~epoch:_ -> crashed "crash");
                d_crash_one = Some (fun ~pid:_ -> crashed "crash-one");
              };
            ] ));
    }
  in
  let o =
    Harness.Model_check.explore ~divergence_bound:0 ~crash_bound:1
      ~crash_one_bound:1 sc
  in
  Alcotest.(check (list string))
    "violations"
    [ "deadlock: p1@x"; "crash after deadlock ran"; "crash-one after deadlock ran" ]
    o.Harness.Model_check.violations

(* The same change under [Por] on the literal line-97 stack: fewer
   deadlocks re-reported, two fewer runs, the same states. *)
let crash_after_deadlock_por () =
  let o =
    Harness.Model_check.explore ~divergence_bound:2 ~crash_bound:2
      ~reduction:Harness.Model_check.Por
      (rme_sc "t3-mcs-literal" 2 Memory.Cc)
  in
  let open Harness.Model_check in
  Alcotest.(check int) "runs" 50_558 o.runs;
  Alcotest.(check int) "deadlocks" 69 o.deadlocks;
  Alcotest.(check int) "states" 211_449 o.distinct_states;
  Alcotest.(check bool) "deadlock found" true
    (List.exists (fun v -> String.starts_with ~prefix:"deadlock" v) o.violations)

let () =
  Alcotest.run "model_check"
    [
      ( "bug-finding",
        [
          case "mutual-exclusion" finds_mutual_exclusion_bug;
          case "deadlock" finds_deadlock;
        ] );
      ( "budgets",
        [
          case "zero-bounds-one-run" zero_divergence_zero_crash_is_one_run;
          case "crash-bound-expands" crash_bound_expands_search;
          case "max-runs-truncates" max_runs_truncates;
        ] );
      ( "hygiene",
        [
          case "deterministic" deterministic;
          case "dedup-messages" violation_messages_deduplicated;
        ] );
      ( "reduction",
        [
          case "clean-verdicts-all-levels" reduction_preserves_clean_verdicts;
          case "broken-lock-all-levels" broken_lock_flagged_at_every_level;
          case "leaky-lock-all-levels" leaky_lock_flagged_at_every_level;
          case "csr-ablation-all-levels" csr_ablation_flagged_at_every_level;
          case "sequential-deterministic"
            reduced_search_deterministic_sequential;
          case "none-counters-zero" no_reduction_reports_zero_counters;
          case "actually-prunes" reduction_actually_prunes;
          case "key-mix-fallback" key_mix_fallback_still_sound;
          case "sym-quotients" sym_quotients_symmetric_states;
          case "sym-quotients-t1-cc" sym_quotients_t1_cc;
          case "sym-crash-violations" sym_preserves_crash_violations;
          case "bitstate-underreports" bitstate_underreports_never_fabricates;
        ] );
      ( "benchmark-searches",
        [
          case "mc-replay" mc_replay_counts;
          case "mc-sym" mc_sym_counts;
        ] );
      ("straight-runs", straight_runs);
      ( "crash-after-deadlock",
        [
          case "crash-children-run" crash_follows_deadlock;
          case "t3-mcs-literal por" crash_after_deadlock_por;
        ] );
      ( "allocation",
        [
          case "words-per-step" replay_words_per_step;
          case "rss-growth" repeated_searches_keep_rss;
        ] );
    ]
