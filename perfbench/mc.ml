(* The model-checker workloads: Harness.Model_check over lib/sim, with
   the visited set and the domain pool of lib/parallel. The untraced run
   enters only through [Model_check.explore]; the traced run also times
   scenario construction, default-schedule replays through
   [Model_check.run_schedule], [Parallel.Vset.covers_or_add] on a set of
   the search's size, and the legacy search on [Parallel.Pool] at jobs 2
   against jobs 1. *)

module MC = Harness.Model_check
module Clock = Rme_native.Clock

type config = {
  stack : string;
  n : int;
  divergence : int;
  crashes : int;
  reduction : MC.reduction;
  jobs : int;
  expect : (int * int) option;
      (** exact runs/steps, pinned where no legitimate change moves them *)
}

(* E12's T2 row one crash deeper under the full reduction stack: bound
   by fingerprinting, canonical-orbit sorting and the visited set. Every
   count is deterministic at jobs 1 (with jobs > 1 reduced counts race),
   so jobs is pinned to 1 and only the verdict is gated — its counts are
   layer metrics a sound reduction change may move. *)
let sym =
  {
    stack = "t2-mcs";
    n = 3;
    divergence = 2;
    crashes = 1;
    reduction = MC.Sym;
    jobs = 1;
    expect = None;
  }

(* Pure replay from the root with no visited set: the legacy search,
   whose counts are identical for any jobs, so they are gated exactly.
   The end-to-end run is sequential; the traced run times the same row
   on the 2-domain speculative pool against it. *)
let replay =
  {
    stack = "t2-mcs";
    n = 2;
    divergence = 2;
    crashes = 1;
    reduction = MC.No_reduction;
    jobs = 1;
    expect = Some (18_046, 916_667);
  }

let scenario c =
  Harness.Scenarios.rme ~n:c.n ~model:Sim.Memory.Cc
    ~make:(fun mem -> Rme.Stack.recoverable mem c.stack)
    ()

let explore ?jobs c sc =
  MC.explore ~divergence_bound:c.divergence ~crash_bound:c.crashes
    ~reduction:c.reduction
    ~jobs:(Option.value jobs ~default:c.jobs)
    sc

let secs t0 = float_of_int (Clock.now_ns () - t0) /. 1e9

(* Scenario construction takes tens of nanoseconds, below the timer's
   resolution, so each sample is the mean over a batch of builds, in µs. *)
let build_us c ~samples ~batch =
  Array.init samples (fun _ ->
      let t0 = Clock.now_ns () in
      for _ = 1 to batch do
        ignore (Sys.opaque_identity (scenario c))
      done;
      float_of_int (Clock.now_ns () - t0) /. 1e3 /. float_of_int batch)

(* One gated search: (outcome, wall seconds call → verdict, CPU seconds). *)
let search ?jobs c tally =
  let sc = scenario c in
  let cpu0 = Host.cpu_s () in
  let t0 = Clock.now_ns () in
  let o = explore ?jobs c sc in
  let wall = secs t0 in
  Gate.search tally ?expect:c.expect o;
  (o, wall, Host.cpu_s () -. cpu0)

(* One untraced repeat: scenario construction (per-build mean of
   batches), then one gated search after a full collection, so the
   previous repeat's garbage is not collected inside this one's CPU
   time. Returns the end-to-end values — the search's process CPU
   seconds and the set-up time — with its wall-clock time kept for the
   run record. *)
let untraced c tally =
  let build_s = Measure.median_or_zero (build_us c ~samples:21 ~batch:1000) /. 1e6 in
  Gc.compact ();
  let _, wall, cpu = search c tally in
  [ ("run_cpu_s", cpu); ("setup_s", build_s); ("run_wall_s", wall) ]

(* The default schedule, replayed alone: per-replay µs samples and the
   steps one replay takes. *)
let replays c ~seconds =
  let sc = scenario c in
  let decide ~pos:_ ~enabled:_ ~default = default in
  let steps = (MC.run_schedule ~decide sc).MC.rp_steps in
  let rc = Measure.recorder 1_000_000 in
  let t_end = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  while rc.Measure.len < 20 || Clock.now_ns () < t_end do
    let t0 = Clock.now_ns () in
    ignore (Sys.opaque_identity (MC.run_schedule ~decide sc));
    Measure.add rc (Clock.now_ns () - t0)
  done;
  (Measure.samples ~scale:1e-3 [ rc ], steps)

(* [covers_or_add] on a fresh exact set filled with [keys] seeded keys:
   per-op ns (batches of 1024 inserts) and the live-heap growth in MB. *)
let vset_fill ~seed keys =
  if keys = 0 then (0., 0.)
  else begin
    let rng = Random.State.make [| seed |] in
    let ks = Array.init keys (fun _ -> Random.State.bits rng lor (Random.State.bits rng lsl 30)) in
    Gc.full_major ();
    let live0 = (Gc.stat ()).Gc.live_words in
    let set = Parallel.Vset.create () in
    let per_op = ref [] in
    let i = ref 0 in
    while !i < keys do
      let hi = min keys (!i + 1024) in
      let t0 = Clock.now_ns () in
      for j = !i to hi - 1 do
        ignore (Parallel.Vset.covers_or_add set ks.(j) ~bit:1 ~closure:1)
      done;
      per_op := (float_of_int (Clock.now_ns () - t0) /. float_of_int (hi - !i)) :: !per_op;
      i := hi
    done;
    Gc.full_major ();
    let live1 = (Gc.stat ()).Gc.live_words in
    ignore (Sys.opaque_identity set);
    ( Measure.median_or_zero (Array.of_list !per_op),
      float_of_int ((live1 - live0) * (Sys.word_size / 8)) /. 1e6 )
  end

(* Domains of the pool probe: nproc on the 2-core host the benchmark
   was tuned on. *)
let pool_jobs = 2

let traced c ~seed tally =
  let build = build_us c ~samples:41 ~batch:1000 in
  let o, untraced_s, _ = search c tally in
  (* The traced search: the same call inside a span. *)
  let _, traced_s, _ = search c tally in
  (* The pool probe: only the legacy search commits identically for any
     jobs, so only there is jobs 1 vs jobs 2 a like-for-like race. *)
  let speedup, cpu_share =
    if c.reduction = MC.No_reduction then
      let _, par_s, cpu = search ~jobs:pool_jobs c tally in
      ( Measure.ratio untraced_s par_s,
        Measure.ratio cpu (par_s *. float_of_int pool_jobs) )
    else (0., 0.)
  in
  let replay_us, replay_steps = replays c ~seconds:1. in
  let replay = Measure.summarize replay_us in
  let vset_ns, vset_mb = vset_fill ~seed o.MC.distinct_states in
  let count name v = ("harness.model_check." ^ name, float_of_int v) in
  List.concat
    [
      [
        count "runs" o.MC.runs;
        count "steps" o.MC.steps;
        count "distinct_states" o.MC.distinct_states;
        count "pruned_runs" o.MC.pruned_runs;
        count "pruned_branches" o.MC.pruned_branches;
        count "sleep_pruned" o.MC.sleep_pruned;
        ("harness.model_check.steps_per_run", Measure.ratio_int o.MC.steps o.MC.runs);
        ( "harness.model_check.states_per_run",
          Measure.ratio_int o.MC.distinct_states o.MC.runs );
        ( "harness.model_check.pruned_run_share",
          Measure.ratio_int o.MC.pruned_runs o.MC.runs );
        ( "harness.model_check.run_us",
          Measure.ratio (untraced_s *. 1e6) (float_of_int o.MC.runs) );
        ( "harness.model_check.step_ns",
          Measure.ratio (untraced_s *. 1e9) (float_of_int o.MC.steps) );
      ];
      Measure.span_metrics "harness.model_check.replay_run_us" replay;
      [
        ( "harness.model_check.replay_step_ns",
          Measure.ratio (replay.Measure.p50 *. 1e3) (float_of_int replay_steps) );
        ("parallel.vset.op_ns", vset_ns);
        ("parallel.vset.heap_mb", vset_mb);
        ("parallel.pool.speedup", speedup);
        ("parallel.pool.cpu_share", cpu_share);
      ];
      Measure.span_metrics "harness.scenario.build_us" (Measure.summarize build);
      [ ("trace.overhead.search_s", traced_s -. untraced_s) ];
    ]
