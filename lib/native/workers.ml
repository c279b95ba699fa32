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
          run was armed with [~latency:true] *)
  alloc_words_per_passage : float option;
      (** worker 1's minor-heap words per steady-state passage, when the
          run was armed with [~alloc_probe:true] *)
}

(* Periodic throughput sampler: a passive observer thread that reads the
   per-domain passage counters every [dt] seconds and appends a
   (seconds since start, total passages) point — the passages/s time
   series across crash storms. It only reads atomics the run already
   maintains, so arming it cannot perturb the run. The wait is chunked
   into <=10 ms slices that re-check [Run.running]: sleeping a whole
   interval at a time kept the thread alive long after a short window
   finished, stalling the join by up to a full interval. *)
let sampler run completed samples dt =
  let dt = Float.max 0.001 dt in
  let t0 = Unix.gettimeofday () in
  Thread.create
    (fun () ->
      while Run.running run do
        let slept = ref 0. in
        while Run.running run && !slept < dt do
          let slice = Float.min 0.01 (dt -. !slept) in
          Thread.delay slice;
          slept := !slept +. slice
        done;
        if Run.running run then begin
          let total =
            Array.fold_left (fun acc c -> acc + Atomic.get c) 0 completed
          in
          samples :=
            { at = Unix.gettimeofday () -. t0; total_passages = total }
            :: !samples
        end
      done)
    ()

(* Crash storm: a system-wide crash every [dt] seconds until the run
   ends or [max_crashes] struck. With a seed, each interval is jittered
   over [dt/2, 3dt/2): the crash *schedule* replays for a given seed (the
   execution underneath is still real concurrency — this pins where in
   wall-time the storms strike, not the interleaving). *)
let storm run crash ~seed ~max_crashes crashes dt =
  let rng = Option.map (fun s -> Random.State.make [| s |]) seed in
  let interval () =
    match rng with
    | None -> dt
    | Some st -> dt *. (0.5 +. Random.State.float st 1.0)
  in
  while Run.running run && !crashes < max_crashes do
    Unix.sleepf (interval ());
    if Run.running run && !crashes < max_crashes then begin
      Crash.crash crash;
      incr crashes
    end
  done

let run ?crash_interval ?(max_crashes = 50) ?seed ?sample_interval
    ?(spin = Backoff.Exponential) ?(pin = false) ?(latency = false)
    ?(alloc_probe = false) ?run_for ~n ~passages ~make () =
  let crash =
    Crash.create ~spin ~spin_seed:(Option.value seed ~default:0) ~n ()
  in
  let lock = make crash ~n in
  let completed = Array.init (n + 1) (fun _ -> Atomic.make 0) in
  let monitor = Monitor.create ~n ~slots:1 in
  let csr_owner = Atomic.make 0 in
  let csr_violations = Atomic.make 0 in
  let csr_reentries = Atomic.make 0 in
  let hists =
    if latency then Array.init (n + 1) (fun _ -> Some (Sim.Stats.create ()))
    else Array.make (n + 1) None
  in
  let body run ~pid =
    let mine = completed.(pid) in
    let progress () = Atomic.get mine in
    let myhist = hists.(pid) in
    let passage ~epoch =
      lock.Intf.recover ~pid ~epoch;
      lock.Intf.enter ~pid ~epoch;
      Monitor.enter monitor ~pid ~slot:0;
      let owner = Atomic.get csr_owner in
      if owner <> 0 then
        if owner = pid then begin
          ignore (Atomic.fetch_and_add csr_reentries 1);
          Atomic.set csr_owner 0
        end
        else ignore (Atomic.fetch_and_add csr_violations 1);
      (* Poll point inside the CS: lets the controller crash us while we
         hold the lock, which is what gives the CSR machinery work to do. *)
      Crash.check crash;
      Monitor.serve monitor ~slot:0;
      Monitor.exit monitor ~pid ~slot:0;
      lock.Intf.exit ~pid ~epoch;
      ignore (Atomic.fetch_and_add mine 1)
    in
    fun ~epoch ->
      let step =
        match myhist with
        | None -> fun () -> passage ~epoch
        | Some h ->
          fun () ->
            let t = Clock.now_ns () in
            passage ~epoch;
            Sim.Stats.add_int h (Clock.now_ns () - t)
      in
      try Run.loop run ~pid ~progress step
      with Crash.Crashed as e ->
        (* Crashed inside the CS: the occupancy is released and the CSR
           property now protects this owner. Recorded here, before the
           worker parks — at re-entry another worker could reach the CS
           first after the epoch bump and the violation would go unseen. *)
        if Monitor.abandon monitor ~pid >= 0 then Atomic.set csr_owner pid;
        raise e
  in
  let crashes = ref 0 in
  let samples = ref [] in
  let controller =
    if crash_interval = None && sample_interval = None then None
    else
      Some
        (fun run ->
          let sampler =
            Option.map (sampler run completed samples) sample_interval
          in
          Option.iter
            (storm run crash ~seed ~max_crashes crashes)
            crash_interval;
          Option.iter Thread.join sampler)
  in
  let outcome =
    Run.run ~pin ?run_for ~alloc_probe ?controller ~crash ~n ~budget:passages
      body
  in
  {
    n;
    lock_name = lock.Intf.name;
    completed = Array.map Atomic.get completed;
    crashes = !crashes;
    me_violations = Monitor.me_violations monitor;
    csr_violations = Atomic.get csr_violations;
    csr_reentries = Atomic.get csr_reentries;
    cs_completions = (Monitor.completions monitor).(0);
    counter = Monitor.counter monitor ~slot:0;
    elapsed = outcome.Run.elapsed;
    samples = Array.of_list (List.rev !samples);
    spin;
    pinned = outcome.Run.pinned;
    passage_ns =
      (if latency then
         Some
           (Array.fold_left
              (fun acc h ->
                match h with Some h -> Sim.Stats.merge acc h | None -> acc)
              (Sim.Stats.create ()) hists)
       else None);
    alloc_words_per_passage = outcome.Run.alloc_words_per_op;
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
      | Some h -> [ ("passage_latency", Sim.Stats.to_json h) ]
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
