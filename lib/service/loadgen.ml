(* The service load harness: n worker domains replay pregenerated
   open-loop traffic (Traffic) against a sharded lock table (Table)
   through per-domain batching clients (Client), over the same run kernel
   ([Rme_native.Run]: spawn, pinning, start barrier, window, allocation
   probe) and monitor set as [Rme_native.Workers] — plus the
   crash-recovery drill: a system-wide epoch bump while under
   load, with the controller measuring how long the recovery barrier
   takes to drain across every shard that was hot at the bump.

   Hot-path discipline (DESIGN.md §5.17): once a worker's shards are
   materialized, one loop iteration — admit (int-array compares), flush
   (Table acquire/serve/release + bitmask grouping), completion
   bookkeeping (byte flag, int stores, [Clock.now_ns]) — allocates
   nothing. Latency is recorded as raw int nanoseconds into preallocated
   arrays and folded into [Sim.Stats] histograms only after the domains
   join, so unlike [Workers] the allocation probe and latency measurement
   coexist on one run.

   Crash/restart protocol per worker (all state plain OCaml, surviving
   the unwind):
     mark    low-water mark: every request below it is served
     next    next stream index not yet submitted
     served  byte flags, set inside the CS via the client's on_served
   On re-entry with a new epoch the worker (1) releases the occupancy
   monitor if it died holding a shard, (2) repairs the shard whose
   passage it crashed inside ([Table.repair_engaged] — mandatory FIRST
   passage: the lock's recovery barriers park other pids until this pid
   re-passages exactly that shard, so deferring it to the partition
   sweep deadlocks workers against each other's abandoned locks,
   DESIGN.md §5.17), (3) clears the in-flight batch, (4) sweeps its
   partition of materialized shards — one recovery passage each, jointly
   draining the barrier — and (5) re-submits the unserved in-flight
   requests (at most [batch] of them, by construction). Every
   stream request is therefore served exactly once: the per-shard served
   histogram equals the issued histogram of the stream prefix, which E15
   gates on.

   Workers that finish their stream while a drill is armed hold in a
   crash-polled spin until the controller declares the drill complete —
   otherwise a fast worker could retire before the crash and leave its
   sweep partition with no recoverer. *)

module Crash = Rme_native.Crash
module Backoff = Rme_native.Backoff
module Clock = Rme_native.Clock
module Run = Rme_native.Run

type drill_report = {
  d_epoch : int;  (** epoch after the bump *)
  d_hot : int;  (** materialized, not-yet-drained shards right after it *)
  d_drained : int;  (** how many of those drained before the timeout *)
  d_drain_s : float;  (** crash declaration -> last hot shard served *)
  d_sweeps : int;  (** recovery passages performed by worker sweeps *)
}

type result = {
  stack : string;
  n : int;
  keys : int;
  shards : int;
  theta : float;
  rate_rps : float;
  think_ns : int;
  batch : int;
  budget : int;  (** per-worker request budget (stream prefix length) *)
  served : int array;  (** per worker (index 0 = pid 1) *)
  shard_served : int array;  (** length [shards]; harness-side counts *)
  issued : int array;  (** per-shard histogram of the issued prefix *)
  table_completions : int array;  (** the table's own per-shard counts *)
  materialized : int;
  me_violations : int;
  lost_update_shards : int;
  crashes : int;
  batches : int;
  max_batch : int;
  elapsed : float;
  spin : Backoff.mode;
  pinned : int;
  traffic_fingerprint : int;
  open_loop : bool;
      (** latency kind: arrival→completion when paced, admit→completion
          when saturating (all arrivals are t=0 there, so sojourn time
          would just measure stream position) *)
  latency_ns : Sim.Stats.t;  (** aggregate over all served requests *)
  shard_latency : (int * int * Sim.Stats.t) list;
      (** (shard, served, histogram) for the hottest shards, by count *)
  drill : drill_report option;
  alloc_words_per_req : float option;
      (** worker 1's minor words per steady-tail served request, when
          armed with [~alloc_probe:true] (arm it on drill-free runs) *)
}

(* Fold the raw per-request int latencies into histograms — off the
   measured path entirely, one pass over every stream prefix that
   computes each request's shard once and fills [issued] on the way.
   Per-shard histograms only for the hottest [top_k] shards (a Stats.t is
   ~4 KB of buckets; 1024 of them is real memory for mostly-empty
   tails); [slot] maps a shard to its histogram's index in [hists], -1
   when the shard is not among them. *)
let top_k = 8

let fold_served ~shard_of ~budget streams ~served ~lat ~wshard_served =
  let shards = Array.length wshard_served.(0) in
  let shard_served = Array.make shards 0 in
  Array.iter
    (fun ws ->
      Array.iteri (fun s c -> shard_served.(s) <- shard_served.(s) + c) ws)
    wshard_served;
  let top =
    let idx = Array.init shards (fun s -> s) in
    Array.sort
      (fun a b ->
        match compare shard_served.(b) shard_served.(a) with
        | 0 -> compare a b
        | c -> c)
      idx;
    Array.to_list (Array.sub idx 0 (min top_k shards))
    |> List.filter (fun s -> shard_served.(s) > 0)
  in
  let hists = Array.of_list (List.map (fun _ -> Sim.Stats.create ()) top) in
  let slot = Array.make shards (-1) in
  List.iteri (fun i s -> slot.(s) <- i) top;
  let agg = Sim.Stats.create () in
  let issued = Array.make shards 0 in
  Array.iteri
    (fun w st ->
      let keys = st.Traffic.s_keys and flags = served.(w) and wl = lat.(w) in
      for i = 0 to budget - 1 do
        let s = shard_of keys.(i) in
        issued.(s) <- issued.(s) + 1;
        if Bytes.get flags i = '\001' then begin
          Sim.Stats.add_int agg wl.(i);
          let h = slot.(s) in
          if h >= 0 then Sim.Stats.add_int hists.(h) wl.(i)
        end
      done)
    streams;
  ( shard_served,
    issued,
    agg,
    List.mapi (fun i s -> (s, shard_served.(s), hists.(i))) top )

let run ?(stack = "t3-mcs") ?model ?(padded = true) ?(shards = 1024)
    ?(theta = 0.99) ?(rate_rps = 0.) ?(think_ns = 0) ?(batch = 16)
    ?(spin = Backoff.Exponential) ?(pin = false) ?(alloc_probe = false)
    ?run_for ?drill_after ?(drill_timeout = 30.) ?traffic_budget ?(seed = 1)
    ~n ~keys ~per_worker () =
  if n < 1 then invalid_arg "Loadgen.run: n must be >= 1";
  let gen_budget = Option.value traffic_budget ~default:per_worker in
  if gen_budget < per_worker then
    invalid_arg "Loadgen.run: traffic_budget must be >= per_worker";
  let traffic =
    Traffic.make ~theta ~rate_rps ~think_ns ~seed ~workers:n
      ~per_worker:gen_budget ~key_space:keys ()
  in
  let crash = Crash.create ~spin ~spin_seed:seed ~n () in
  let table =
    Table.create ?model ~padded ~shards ~stack ~keys ~crash ~n ()
  in
  let budget = per_worker in
  let open_loop = rate_rps > 0. in
  let drill_done = Atomic.make (if drill_after = None then 1 else 0) in
  (* Per-worker plain result state, allocated before spawn; each slot has
     a single writer and is read by the main domain only after join. *)
  let served_flags = Array.init n (fun _ -> Bytes.make (max 1 budget) '\000') in
  let lat = Array.init n (fun _ -> Array.make (max 1 budget) 0) in
  let wshard_served = Array.init n (fun _ -> Array.make shards 0) in
  let sweeps = Array.make (n + 1) 0 in
  let wbatches = Array.make n 0 in
  let wmax_batch = Array.make n 0 in
  let body run ~pid =
    let st = traffic.Traffic.streams.(pid - 1) in
    let skeys = st.Traffic.s_keys and arr = st.Traffic.s_arrival_ns in
    let served = served_flags.(pid - 1) in
    let mylat = lat.(pid - 1) in
    let myshard = wshard_served.(pid - 1) in
    let mark = ref 0 and next = ref 0 in
    let progress () = !mark in
    let swept_epoch = ref (Crash.epoch crash) in
    let bk = Crash.backoff crash in
    let t0 = Clock.now_ns () in
    let on_served ~tag ~shard =
      Bytes.unsafe_set served tag '\001';
      mylat.(tag) <- Clock.now_ns () - mylat.(tag);
      myshard.(shard) <- myshard.(shard) + 1
    in
    let client = Client.create table ~pid ~cap:batch ~on_served in
    (* Submit request [i]: stamp the latency base (its generated arrival
       when paced; now when saturating) and buffer it. *)
    let push i =
      mylat.(i) <- (if open_loop then t0 + arr.(i) else Clock.now_ns ());
      Client.submit client ~key:skeys.(i) ~tag:i
    in
    let step ~epoch () =
      let now_rel = Clock.now_ns () - t0 in
      while !next < budget && Client.room client && arr.(!next) <= now_rel do
        push !next;
        incr next
      done;
      if Client.pending client > 0 then Client.flush client ~epoch
      else if !next < budget then begin
        (* Open-loop idle: nothing due yet; pace out to the next
           arrival under the crash-polled backoff. *)
        let target = t0 + arr.(!next) in
        while Clock.now_ns () < target do
          Crash.check crash;
          Backoff.once bk
        done;
        Backoff.reset bk
      end;
      while !mark < budget && Bytes.get served !mark = '\001' do
        incr mark
      done
    in
    fun ~epoch ->
      if epoch > !swept_epoch then begin
        (* Post-crash re-entry: see the module comment's protocol. *)
        Table.abandon_held table ~pid;
        sweeps.(pid) <- sweeps.(pid) + Table.repair_engaged table ~pid ~epoch;
        Client.clear client;
        sweeps.(pid) <- sweeps.(pid) + Table.sweep table ~pid ~epoch;
        swept_epoch := epoch;
        for i = !mark to !next - 1 do
          if Bytes.get served i = '\000' then push i
        done
      end;
      Run.loop run ~pid ~progress (step ~epoch);
      (* Hold until the drill completes so this worker's sweep partition
         keeps a live recoverer (no-op when no drill is armed). *)
      if Atomic.get drill_done = 0 then
        Crash.spin_until crash (fun () -> Atomic.get drill_done = 1);
      wbatches.(pid - 1) <- Client.batches client;
      wmax_batch.(pid - 1) <- Client.max_batch client
  in
  let crashes = ref 0 in
  let drill = ref None in
  let drill_controller s _run =
    Unix.sleepf s;
    let tc = Clock.now_ns () in
    Crash.crash crash;
    incr crashes;
    let e = Crash.epoch crash in
    let hot = Table.undrained table ~epoch:e in
    let timeout = tc + int_of_float (drill_timeout *. 1e9) in
    let rec wait () =
      let u = Table.undrained table ~epoch:e in
      if u = 0 || Clock.now_ns () > timeout then u
      else begin
        Unix.sleepf 0.0005;
        wait ()
      end
    in
    let remaining = wait () in
    let drain_s = float_of_int (Clock.now_ns () - tc) /. 1e9 in
    Atomic.set drill_done 1;
    drill :=
      Some
        {
          d_epoch = e;
          d_hot = hot;
          d_drained = hot - remaining;
          d_drain_s = drain_s;
          d_sweeps = 0 (* filled in after join *);
        }
  in
  let outcome =
    Run.run ~pin ?run_for ~alloc_probe
      ?controller:(Option.map drill_controller drill_after)
      ~crash ~n ~budget body
  in
  let elapsed = outcome.Run.elapsed in
  let drill =
    Option.map
      (fun d -> { d with d_sweeps = Array.fold_left ( + ) 0 sweeps })
      !drill
  in
  let shard_served, issued, latency_ns, shard_latency =
    fold_served ~shard_of:(fun key -> Table.shard_of table key) ~budget
      traffic.Traffic.streams ~served:served_flags ~lat ~wshard_served
  in
  let served =
    Array.map
      (fun flags ->
        let c = ref 0 in
        Bytes.iter (fun b -> if b = '\001' then incr c) flags;
        !c)
      served_flags
  in
  {
    stack;
    n;
    keys;
    shards;
    theta;
    rate_rps;
    think_ns;
    batch;
    budget;
    served;
    shard_served;
    issued;
    table_completions = Table.shard_completions table;
    materialized = Table.materialized table;
    me_violations = Table.me_violations table;
    lost_update_shards = Table.lost_update_shards table;
    crashes = !crashes;
    batches = Array.fold_left ( + ) 0 wbatches;
    max_batch = Array.fold_left Stdlib.max 0 wmax_batch;
    elapsed;
    spin;
    pinned = outcome.Run.pinned;
    traffic_fingerprint = Traffic.fingerprint traffic;
    open_loop;
    latency_ns;
    shard_latency;
    drill;
    alloc_words_per_req = outcome.Run.alloc_words_per_op;
  }

let total_served r = Array.fold_left ( + ) 0 r.served

(* Every stream request served exactly once: the harness-side per-shard
   served histogram equals both the issued histogram of the prefix and
   the table's own completion counts. Only meaningful for untimed runs
   (a ~run_for window legitimately leaves a tail unserved). *)
let served_exactly r =
  r.shard_served = r.issued && r.shard_served = r.table_completions

let check_clean r =
  if r.me_violations > 0 then
    Error (Printf.sprintf "%d mutual-exclusion violations" r.me_violations)
  else if r.lost_update_shards > 0 then
    Error (Printf.sprintf "lost updates on %d shards" r.lost_update_shards)
  else
    match r.drill with
    | Some d when d.d_drained < d.d_hot ->
      Error
        (Printf.sprintf "drill: %d of %d hot shards never drained"
           (d.d_hot - d.d_drained) d.d_hot)
    | _ -> Ok ()

let schema =
  let open Sim.Json.Schema in
  let count = int ~min:0 () and pos = int ~min:1 () in
  doc "rme-service-metrics/1"
    ~where:(same_length ~list:"served" ~count:"n")
    [
      req "stack" str;
      req "n" pos;
      req "keys" pos;
      req "shards" pos;
      req "theta" (num ());
      req "rate_rps" (num ());
      req "think_ns" count;
      req "batch" pos;
      req "budget" count;
      req "served" (list count);
      req "total_served" count;
      req "served_exactly" bool;
      req "materialized" count;
      req "crashes" count;
      req "me_violations" count;
      req "lost_update_shards" count;
      req "batches" count;
      req "max_batch" count;
      req "elapsed_s" (num ());
      req "throughput_rps" (num ());
      req "passages_ps" (num ());
      req "latency_kind" (enum [ "arrival"; "admit" ]);
      req "latency_ns" Sim.Stats.json_schema;
      req "shard_latency"
        (list
           (obj
              [
                req "shard" count;
                req "served" count;
                req "latency_ns" Sim.Stats.json_schema;
              ]));
      req "traffic_fingerprint" (int ());
      req "spin" (enum (List.map Backoff.mode_name Backoff.modes));
      req "pinned" count;
      req "drill"
        (nullable
           (obj
              [
                req "epoch" count;
                req "hot_shards" count;
                req "drained_shards" count;
                req "drain_s" (num ());
                req "sweep_passages" count;
              ]));
      opt "alloc_words_per_request" (num ());
    ]

let metrics r =
  let open Sim.Json in
  let total = total_served r in
  Obj
    ([
       ("schema", Str (Sim.Json.Schema.name schema));
       ("stack", Str r.stack);
       ("n", Int r.n);
       ("keys", Int r.keys);
       ("shards", Int r.shards);
       ("theta", Float r.theta);
       ("rate_rps", Float r.rate_rps);
       ("think_ns", Int r.think_ns);
       ("batch", Int r.batch);
       ("budget", Int r.budget);
       ("served", List (Array.to_list (Array.map (fun c -> Int c) r.served)));
       ("total_served", Int total);
       ("served_exactly", Bool (served_exactly r));
       ("materialized", Int r.materialized);
       ("crashes", Int r.crashes);
       ("me_violations", Int r.me_violations);
       ("lost_update_shards", Int r.lost_update_shards);
       ("batches", Int r.batches);
       ("max_batch", Int r.max_batch);
       ("elapsed_s", Float r.elapsed);
       ( "throughput_rps",
         Float
           (if r.elapsed > 0. then float_of_int total /. r.elapsed else 0.) );
       ( "passages_ps",
         Float
           (if r.elapsed > 0. then float_of_int r.batches /. r.elapsed else 0.)
       );
       ("latency_kind", Str (if r.open_loop then "arrival" else "admit"));
       ("latency_ns", Sim.Stats.to_json r.latency_ns);
       ( "shard_latency",
         List
           (List.map
              (fun (s, c, h) ->
                Obj
                  [
                    ("shard", Int s);
                    ("served", Int c);
                    ("latency_ns", Sim.Stats.to_json h);
                  ])
              r.shard_latency) );
       ("traffic_fingerprint", Int r.traffic_fingerprint);
       ("spin", Str (Backoff.mode_name r.spin));
       ("pinned", Int r.pinned);
       ( "drill",
         match r.drill with
         | None -> Null
         | Some d ->
           Obj
             [
               ("epoch", Int d.d_epoch);
               ("hot_shards", Int d.d_hot);
               ("drained_shards", Int d.d_drained);
               ("drain_s", Float d.d_drain_s);
               ("sweep_passages", Int d.d_sweeps);
             ] );
     ]
    @
    match r.alloc_words_per_req with
    | Some w -> [ ("alloc_words_per_request", Float w) ]
    | None -> [])

let metrics_json r = Sim.Json.to_string ~pretty:true (metrics r) ^ "\n"

let pp_result ppf r =
  let total = total_served r in
  Format.fprintf ppf
    "%s keys=%d shards=%d n=%d θ=%.2f: %d/%d requests in %.2fs (%.0f req/s, \
     %d passages, max batch %d, %d shards materialized, %d crashes) \
     ME-viol=%d lost-update-shards=%d served-exactly=%b"
    r.stack r.keys r.shards r.n r.theta total (r.n * r.budget) r.elapsed
    (if r.elapsed > 0. then float_of_int total /. r.elapsed else 0.)
    r.batches r.max_batch r.materialized r.crashes r.me_violations
    r.lost_update_shards (served_exactly r);
  match r.drill with
  | None -> ()
  | Some d ->
    Format.fprintf ppf
      "@ drill: epoch->%d, %d hot shards, %d drained in %.3fs (%d sweep \
       passages)"
      d.d_epoch d.d_hot d.d_drained d.d_drain_s d.d_sweeps
