type sample = { at : float; total_passages : int }

type result = {
  n : int;
  lock_name : string;
  completed : int array;
  crashes : int;
  me_violations : int;
  csr_violations : int;
  csr_reentries : int;
  cs_completions : int;
  counter : int;
  elapsed : float;
  samples : sample array;
  spin : Backoff.mode;  (** spin policy the run's crash handle used *)
  pinned : int;  (** workers that actually landed on their core *)
  passage_ns : Sim.Stats.t option;
      (** per-passage latency histogram (all workers merged), when the
          run was armed with [~latency:true]; ns or cycles per [timer] *)
  timer_is_tsc : bool;  (** latency unit: cycles (TSC) vs monotonic ns *)
  alloc_words_per_passage : float option;
      (** worker 1's minor-heap words per steady-state passage, when the
          run was armed with [~alloc_probe:true] *)
}

let minor_words_int () = int_of_float (Gc.minor_words ())

let run ?crash_interval ?(max_crashes = 50) ?seed ?(csr_poll = true)
    ?sample_interval ?(spin = Backoff.Exponential) ?(pin = false)
    ?(latency = false) ?(timer = `Ns) ?(alloc_probe = false)
    ?(sync_start = false) ?run_for ~n ~passages ~make () =
  let crash =
    Crash.create ~spin ~spin_seed:(Option.value seed ~default:0) ~n ()
  in
  let lock = make crash ~n in
  let completed = Array.init (n + 1) (fun _ -> Atomic.make 0) in
  let occupancy = Atomic.make 0 in
  let me_violations = Atomic.make 0 in
  let csr_owner = Atomic.make 0 in
  let csr_violations = Atomic.make 0 in
  let csr_reentries = Atomic.make 0 in
  let cs_completions = Atomic.make 0 in
  let pinned = Atomic.make 0 in
  (* Start barrier, armed by [sync_start]: without it, a worker whose
     per-worker budget fits inside one OS timeslice can finish before the
     next domain even spawns, so small "contended" runs silently measure
     serial execution. E14's throughput rows hold everyone at the gate
     until the last domain is up. *)
  let started = Atomic.make 0 in
  let cores = Domain.recommended_domain_count () in
  let now =
    match timer with `Ns -> Clock.now_ns | `Cycles -> Clock.cycles
  in
  let hists =
    if latency then Array.init (n + 1) (fun _ -> Some (Sim.Stats.create ()))
    else Array.make (n + 1) None
  in
  (* The allocation probe watches worker 1's own minor-words counter
     (per-domain in OCaml 5) across the steady tail of its passage loop:
     the first fifth of the passages are warmup, absorbing one-time costs
     (the domain's DLS backoff state, lock-side lazy initialization), and
     whatever the tail allocates is charged per passage. Only meaningful
     failure-free — a crash restarts the loop — so arm it on dedicated
     rows (E14 does). *)
  let warmup = max 1 (passages / 5) in
  let alloc_start = ref 0 in
  let alloc_stop = ref (-1) in
  (* Fixed-window mode: stop starting new passages once [run_for] seconds
     have elapsed (each worker finishes its in-flight passage cleanly, so
     a FIFO queue drains instead of wedging). Fixed-passage budgets
     measure a bimodal mix — a short run can complete before the workers
     ever truly overlap — whereas any window much longer than an OS
     timeslice spends almost all of it in the contended steady state,
     which is what E14's throughput rows need to compare. *)
  let deadline =
    match run_for with
    | None -> max_int
    | Some s -> Clock.now_ns () + int_of_float (s *. 1e9)
  in
  let timed = deadline <> max_int in
  (* Deliberately plain: lost updates reveal broken mutual exclusion. *)
  let counter = ref 0 in
  let t0 = Unix.gettimeofday () in
  let worker pid () =
    if pin && Pin.to_core ((pid - 1) mod cores) then
      ignore (Atomic.fetch_and_add pinned 1);
    if sync_start then begin
      ignore (Atomic.fetch_and_add started 1);
      while Atomic.get started < n do
        Domain.cpu_relax ()
      done
    end;
    let holding_cs = ref false in
    let probing = alloc_probe && pid = 1 in
    let myhist = hists.(pid) in
    let passage ~epoch =
      lock.Intf.recover ~pid ~epoch;
      lock.Intf.enter ~pid ~epoch;
      if Atomic.fetch_and_add occupancy 1 <> 0 then
        ignore (Atomic.fetch_and_add me_violations 1);
      holding_cs := true;
      let owner = Atomic.get csr_owner in
      if owner <> 0 then
        if owner = pid then begin
          ignore (Atomic.fetch_and_add csr_reentries 1);
          Atomic.set csr_owner 0
        end
        else ignore (Atomic.fetch_and_add csr_violations 1);
      (* Poll point inside the CS: lets the controller crash us while we
         hold the lock, which is what gives the CSR machinery work to do. *)
      if csr_poll then Crash.check crash;
      counter := !counter + 1;
      ignore (Atomic.fetch_and_add cs_completions 1);
      holding_cs := false;
      ignore (Atomic.fetch_and_add occupancy (-1));
      lock.Intf.exit ~pid ~epoch;
      ignore (Atomic.fetch_and_add completed.(pid) 1)
    in
    let body ~epoch =
      try
        while
          Atomic.get completed.(pid) < passages
          && ((not timed) || Clock.now_ns () < deadline)
        do
          Crash.check crash;
          if probing && Atomic.get completed.(pid) = warmup then
            alloc_start := minor_words_int ();
          (match myhist with
          | None -> passage ~epoch
          | Some h ->
            let t = now () in
            passage ~epoch;
            Sim.Stats.add_int h (now () - t))
        done;
        if probing then alloc_stop := minor_words_int ()
      with Crash.Crashed as e ->
        (* Crashed inside the CS: release the occupancy monitor and record
           the owner the CSR property now protects. *)
        if !holding_cs then begin
          holding_cs := false;
          ignore (Atomic.fetch_and_add occupancy (-1));
          Atomic.set csr_owner pid
        end;
        raise e
    in
    Crash.worker_run crash ~pid body;
    Crash.worker_done crash ~pid
  in
  let domains = List.init n (fun i -> Domain.spawn (worker (i + 1))) in
  let unfinished () =
    ((not timed) || Clock.now_ns () < deadline)
    && Array.exists (fun c -> Atomic.get c < passages) (Array.sub completed 1 n)
  in
  (* Periodic throughput sampler: a passive observer thread that reads
     the per-domain passage counters every [sample_interval] seconds and
     appends a (wall-clock, total passages) point — the passages/s time
     series across crash storms. It only reads atomics the monitors
     already maintain, so arming it cannot perturb the run. The wait is
     chunked into <=10 ms slices that re-check [unfinished]: sleeping a
     whole interval at a time kept the thread alive long after a short
     window (small budget, or [~run_for] shorter than the interval)
     finished, stalling [Thread.join] below by up to a full interval. *)
  let samples = ref [] in
  let sampler =
    Option.map
      (fun dt ->
        let dt = Float.max 0.001 dt in
        Thread.create
          (fun () ->
            while unfinished () do
              (* Sleep [dt] in slices so a finished run is noticed within
                 ~10 ms; a full slice sequence preserves the dt cadence. *)
              let slept = ref 0. in
              while unfinished () && !slept < dt do
                let slice = Float.min 0.01 (dt -. !slept) in
                Thread.delay slice;
                slept := !slept +. slice
              done;
              if unfinished () then begin
                let total =
                  Array.fold_left
                    (fun acc c -> acc + Atomic.get c)
                    0
                    (Array.sub completed 1 n)
                in
                samples :=
                  { at = Unix.gettimeofday () -. t0; total_passages = total }
                  :: !samples
              end
            done)
          ())
      sample_interval
  in
  let crashes = ref 0 in
  (match crash_interval with
  | None -> ()
  | Some dt ->
    (* With a seed, jitter each interval over [dt/2, 3dt/2): the crash
       *schedule* replays for a given seed (the execution underneath is
       still real concurrency — this pins where in wall-time the storms
       strike, not the interleaving). *)
    let rng = Option.map (fun s -> Random.State.make [| s |]) seed in
    let interval () =
      match rng with
      | None -> dt
      | Some st -> dt *. (0.5 +. Random.State.float st 1.0)
    in
    while unfinished () && !crashes < max_crashes do
      Unix.sleepf (interval ());
      if unfinished () && !crashes < max_crashes then begin
        Crash.crash crash;
        incr crashes
      end
    done);
  List.iter Domain.join domains;
  Option.iter Thread.join sampler;
  let passage_ns =
    if latency then
      Some
        (Array.fold_left
           (fun acc h ->
             match h with Some h -> Sim.Stats.merge acc h | None -> acc)
           (Sim.Stats.create ()) hists)
    else None
  in
  let alloc_words_per_passage =
    if alloc_probe && !alloc_stop >= 0 && passages > warmup then
      Some
        (float_of_int (!alloc_stop - !alloc_start)
        /. float_of_int (passages - warmup))
    else None
  in
  {
    n;
    lock_name = lock.Intf.name;
    completed = Array.map Atomic.get completed;
    crashes = !crashes;
    me_violations = Atomic.get me_violations;
    csr_violations = Atomic.get csr_violations;
    csr_reentries = Atomic.get csr_reentries;
    cs_completions = Atomic.get cs_completions;
    counter = !counter;
    elapsed = Unix.gettimeofday () -. t0;
    samples = Array.of_list (List.rev !samples);
    spin;
    pinned = Atomic.get pinned;
    passage_ns;
    timer_is_tsc = (match timer with `Ns -> false | `Cycles -> Clock.cycles_is_tsc ());
    alloc_words_per_passage;
  }

let schema =
  let open Sim.Json.Schema in
  let count = int ~min:0 () in
  doc "rme-native-metrics/1"
    ~where:(same_length ~list:"completed" ~count:"n")
    [
      req "lock" str;
      req "n" (int ~min:1 ());
      req "completed" (list count);
      req "total_passages" count;
      req "crashes" count;
      req "me_violations" count;
      req "csr_violations" count;
      req "csr_reentries" count;
      req "cs_completions" count;
      req "counter" (int ());
      req "elapsed_s" (num ());
      req "throughput_pps" (num ());
      req "spin" (enum (List.map Backoff.mode_name Backoff.modes));
      req "pinned" count;
      req "samples" (list (tuple [ num (); count ]));
      opt "passage_latency" Sim.Stats.json_schema;
      opt "latency_unit" (enum [ "ns"; "cycles" ]);
      opt "alloc_words_per_passage" (num ());
    ]

let metrics r =
  let total = Array.fold_left ( + ) 0 r.completed in
  let per_domain =
    List.tl (Array.to_list (Array.map (fun c -> Sim.Json.Int c) r.completed))
  in
  Sim.Json.Obj
    ([
       ("schema", Sim.Json.Str (Sim.Json.Schema.name schema));
       ("lock", Sim.Json.Str r.lock_name);
       ("n", Sim.Json.Int r.n);
       ("completed", Sim.Json.List per_domain);
       ("total_passages", Sim.Json.Int total);
       ("crashes", Sim.Json.Int r.crashes);
       ("me_violations", Sim.Json.Int r.me_violations);
       ("csr_violations", Sim.Json.Int r.csr_violations);
       ("csr_reentries", Sim.Json.Int r.csr_reentries);
       ("cs_completions", Sim.Json.Int r.cs_completions);
       ("counter", Sim.Json.Int r.counter);
       ("elapsed_s", Sim.Json.Float r.elapsed);
       ( "throughput_pps",
         Sim.Json.Float
           (if r.elapsed > 0. then float_of_int total /. r.elapsed else 0.) );
       ("spin", Sim.Json.Str (Backoff.mode_name r.spin));
       ("pinned", Sim.Json.Int r.pinned);
       ( "samples",
         Sim.Json.List
           (Array.to_list
              (Array.map
                 (fun s ->
                   Sim.Json.List
                     [ Sim.Json.Float s.at; Sim.Json.Int s.total_passages ])
                 r.samples)) );
     ]
    @ (match r.passage_ns with
      | Some h ->
        [
          ("passage_latency", Sim.Stats.to_json h);
          ( "latency_unit",
            Sim.Json.Str (if r.timer_is_tsc then "cycles" else "ns") );
        ]
      | None -> [])
    @
    match r.alloc_words_per_passage with
    | Some w -> [ ("alloc_words_per_passage", Sim.Json.Float w) ]
    | None -> [])

let metrics_json r = Sim.Json.to_string ~pretty:true (metrics r) ^ "\n"

let check_clean r =
  if r.me_violations > 0 then
    Error (Printf.sprintf "%d mutual-exclusion violations" r.me_violations)
  else if r.counter <> r.cs_completions then
    Error
      (Printf.sprintf "lost updates: counter=%d, completions=%d" r.counter
         r.cs_completions)
  else Ok ()

let pp_result ppf r =
  Format.fprintf ppf
    "%s n=%d: %d passages in %.2fs (%d crashes) ME-viol=%d CSR-viol=%d \
     CSR-reentries=%d counter-ok=%b"
    r.lock_name r.n
    (Array.fold_left ( + ) 0 r.completed)
    r.elapsed r.crashes r.me_violations r.csr_violations r.csr_reentries
    (r.counter = r.cs_completions)
