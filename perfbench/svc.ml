(* The service workloads: the sharded lock table (lib/service) over the
   native backend (lib/native) over the shared transcriptions (lib/core,
   lib/locks). The untraced run enters only through [Loadgen.run]; the
   traced run times the layers' public functions — Traffic.make,
   Table.create/acquire/serve/release, Client.flush, Rme_native.Stack —
   from here, without changing program code. *)

module Loadgen = Rme_service.Loadgen
module Traffic = Rme_service.Traffic
module Table = Rme_service.Table
module Client = Rme_service.Client
module Crash = Rme_native.Crash
module Clock = Rme_native.Clock
module Pin = Rme_native.Pin
module Intf = Rme_native.Intf

type config = {
  stack : string;
  n : int;  (** worker domains, pinned; at most nproc = 2 on the target host *)
  keys : int;
  shards : int;
  theta : float;
  batch : int;
  per_worker : int;  (** closed-loop request budget per worker *)
}

(* Hot shards: Zipf 0.99 over 1024 shards puts the full T3∘T2∘T1(MCS)
   passage under contention and makes batching fire; materializing the
   1024 shards is a small part of the window. *)
let hot =
  {
    stack = "t3-mcs";
    n = 2;
    keys = 1_000_000;
    shards = 1024;
    theta = 0.99;
    batch = 16;
    per_worker = 500_000;
  }

(* Cold shards: uniform keys over 4096 shards, each touched ~50 times,
   so lazy materialization and a working set far beyond cache (~26 KB
   per shard) dominate while batching and contention do almost nothing.
   16,384 shards, ~20 touches each, was unsteady on a shared 2-core
   host: its 430 MB of lazy allocation across two domains turned into
   stop-the-world collections and host steal. *)
let cold = { hot with shards = 4096; theta = 0.; per_worker = 100_000 }

let secs t0 = float_of_int (Clock.now_ns () - t0) /. 1e9

let timed f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, secs t0)

let make_traffic c ~seed =
  Traffic.make ~theta:c.theta ~seed ~workers:c.n ~per_worker:c.per_worker
    ~key_space:c.keys ()

let make_table c =
  let crash = Crash.create ~n:c.n () in
  (Table.create ~shards:c.shards ~stack:c.stack ~keys:c.keys ~crash ~n:c.n (), crash)

let serve c ~seed =
  Loadgen.run ~stack:c.stack ~shards:c.shards ~theta:c.theta ~batch:c.batch
    ~pin:true ~seed ~n:c.n ~keys:c.keys ~per_worker:c.per_worker ()

let served_rps (r : Loadgen.result) =
  float_of_int (Loadgen.total_served r) /. r.Loadgen.elapsed

(* One untraced repeat: set-up, then one saturating service run through
   [Loadgen.run], gated. Returns the end-to-end values — the call's
   process CPU seconds and the set-up time — with the wall-clock
   throughput and call time kept for the run record, and the pins that
   landed. *)
let untraced c ~seed tally =
  let traffic, make_s = timed (fun () -> make_traffic c ~seed) in
  let _, create_s = timed (fun () -> make_table c) in
  ignore (Sys.opaque_identity traffic);
  Gc.compact ();
  let cpu0 = Host.cpu_s () in
  let r, wall = timed (fun () -> serve c ~seed) in
  let cpu = Host.cpu_s () -. cpu0 in
  Gate.service tally ~expected:(c.n * c.per_worker) r;
  Gc.compact ();
  ( [
      ("run_cpu_s", cpu);
      ("setup_s", make_s +. create_s);
      ("throughput_rps", served_rps r);
      ("run_wall_s", wall);
    ],
    r.Loadgen.pinned )

(* --- traced run: spans around each layer's public calls --- *)

(* Start [n] pinned domains behind a start barrier, run [body pid] on
   each, join; returns the pins that landed and the window from the
   moment every domain was live to the last join, in ns. *)
let on_domains n body =
  let cores = Domain.recommended_domain_count () in
  let started = Atomic.make 0 and pinned = Atomic.make 0 in
  let worker pid () =
    if Pin.to_core ((pid - 1) mod cores) then Atomic.incr pinned;
    Atomic.incr started;
    while Atomic.get started < n do
      Domain.cpu_relax ()
    done;
    body pid
  in
  let ds = List.init n (fun i -> Domain.spawn (worker (i + 1))) in
  while Atomic.get started < n do
    Domain.cpu_relax ()
  done;
  let t0 = Clock.now_ns () in
  List.iter Domain.join ds;
  (Atomic.get pinned, Clock.now_ns () - t0)

(* Table gate for the benchmark's own drives: clean monitors and exactly
   [expected] completions. *)
let gate_table tally table ~expected =
  tally.Gate.attempted <- tally.Gate.attempted + expected;
  let done_ = Table.completions table in
  if Table.me_violations table > 0 || Table.lost_update_shards table > 0 then
    Gate.fail tally ~count:expected "traced table not clean"
  else if done_ <> expected then
    Gate.fail tally ~count:(abs (expected - done_))
      (Printf.sprintf "traced table completed %d of %d" done_ expected)

type replica = {
  rp_rps : float;
  flush_ns : float array;
  per_passage : float;
  outside_share : float;
  rp_pins : int;
}

(* A traced mirror of Loadgen's saturating worker loop on a fresh table,
   with the same per-request bookkeeping (admit stamp, completion
   latency, per-shard count, crash poll): admit while the batch has
   room, flush (timed), advance the low-water mark over served flags. *)
let replica c (traffic : Traffic.t) tally =
  let table, crash = make_table c in
  let epoch = Crash.epoch crash in
  let budget = c.per_worker in
  let flushes = Array.init c.n (fun _ -> Measure.recorder budget) in
  let windows = Array.make c.n 0 in
  let batches = Array.make c.n 0 in
  let body pid =
    let t0 = Clock.now_ns () in
    let st = traffic.Traffic.streams.(pid - 1) in
    let keys = st.Traffic.s_keys and arr = st.Traffic.s_arrival_ns in
    let served = Bytes.make budget '\000' in
    let lat = Array.make budget 0 and per_shard = Array.make c.shards 0 in
    let on_served ~tag ~shard =
      Bytes.unsafe_set served tag '\001';
      lat.(tag) <- Clock.now_ns () - lat.(tag);
      per_shard.(shard) <- per_shard.(shard) + 1
    in
    let client = Client.create table ~pid ~cap:c.batch ~on_served in
    let rc = flushes.(pid - 1) in
    let mark = ref 0 and next = ref 0 in
    while !mark < budget do
      Crash.check crash;
      let now_rel = Clock.now_ns () - t0 in
      while !next < budget && Client.room client && arr.(!next) <= now_rel do
        lat.(!next) <- Clock.now_ns ();
        Client.submit client ~key:keys.(!next) ~tag:!next;
        incr next
      done;
      if Client.pending client > 0 then begin
        let f0 = Clock.now_ns () in
        Client.flush client ~epoch;
        Measure.add rc (Clock.now_ns () - f0)
      end;
      while !mark < budget && Bytes.get served !mark = '\001' do
        incr mark
      done
    done;
    windows.(pid - 1) <- Clock.now_ns () - t0;
    batches.(pid - 1) <- Client.batches client
  in
  let pins, window_ns = on_domains c.n body in
  gate_table tally table ~expected:(c.n * budget);
  let flush_total = Array.fold_left (fun a r -> a + Measure.sum r) 0 flushes in
  {
    rp_rps = float_of_int (c.n * budget) /. (float_of_int window_ns /. 1e9);
    flush_ns = Measure.samples (Array.to_list flushes);
    per_passage =
      Measure.ratio_int (c.n * budget) (Array.fold_left ( + ) 0 batches);
    outside_share =
      1. -. Measure.ratio_int flush_total (Array.fold_left ( + ) 0 windows);
    rp_pins = pins;
  }

(* First touch of every shard the traffic reaches, in arrival order, on
   one domain: each sample is Table.acquire + release on an
   unmaterialized shard. The live heap is measured around the whole
   sweep. Returns the materialized table for the warm-passage drive. *)
let materialize c (traffic : Traffic.t) =
  let table, crash = make_table c in
  let epoch = Crash.epoch crash in
  let seen = Bytes.make c.shards '\000' in
  let order = Array.make c.shards 0 and k = ref 0 in
  for i = 0 to c.per_worker - 1 do
    Array.iter
      (fun st ->
        let s = Table.shard_of table st.Traffic.s_keys.(i) in
        if Bytes.get seen s = '\000' then begin
          Bytes.set seen s '\001';
          order.(!k) <- s;
          incr k
        end)
      traffic.Traffic.streams
  done;
  let rc = Measure.recorder !k in
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  for i = 0 to !k - 1 do
    let s = order.(i) in
    let t0 = Clock.now_ns () in
    Table.acquire table ~pid:1 ~epoch ~shard:s;
    Table.release table ~pid:1 ~epoch ~shard:s;
    Measure.add rc (Clock.now_ns () - t0)
  done;
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let kb_per_shard =
    Measure.ratio
      (float_of_int ((live1 - live0) * (Sys.word_size / 8)) /. 1024.)
      (float_of_int (Table.materialized table))
  in
  (table, crash, Measure.samples ~scale:1e-3 [ rc ], kb_per_shard)

(* Warm passages on the workload's own pinned domains and traffic: each
   sample is one Table.acquire + serve + release on a materialized
   shard, contended as the workload contends. *)
let warm_passages c (traffic : Traffic.t) table crash tally =
  let epoch = Crash.epoch crash in
  let budget = c.per_worker in
  let recs = Array.init c.n (fun _ -> Measure.recorder budget) in
  let body pid =
    let keys = traffic.Traffic.streams.(pid - 1).Traffic.s_keys in
    let rc = recs.(pid - 1) in
    for i = 0 to budget - 1 do
      let shard = Table.shard_of table keys.(i) in
      let t0 = Clock.now_ns () in
      Table.acquire table ~pid ~epoch ~shard;
      Table.serve table ~shard;
      Table.release table ~pid ~epoch ~shard;
      Measure.add rc (Clock.now_ns () - t0)
    done
  in
  let pins, _ = on_domains c.n body in
  (* [materialize]'s first touches served nothing, so the table's
     completions are exactly the warm passages. *)
  gate_table tally table ~expected:(c.n * budget);
  (Measure.samples (Array.to_list recs), pins)

(* Uncontended single-domain passages through Rme_native.Stack: enter and
   exit for MCS, recover + enter + exit for the RME stacks; samples are
   per-passage means over batches of [batch] passages. *)
let native_samples = 200

let native_passage_ns ~batch name =
  let crash = Crash.create ~n:2 () in
  let epoch = Crash.epoch crash in
  let pass =
    if name = "mcs" then
      let (l : Intf.mutex) = Rme_native.Stack.conventional crash ~n:2 name in
      fun () ->
        l.Intf.enter ~pid:1;
        l.Intf.exit ~pid:1
    else
      let (l : Intf.rme) = Rme_native.Stack.recoverable crash ~n:2 name in
      fun () ->
        l.Intf.recover ~pid:1 ~epoch;
        l.Intf.enter ~pid:1 ~epoch;
        l.Intf.exit ~pid:1 ~epoch
  in
  for _ = 1 to batch * 10 do
    pass ()
  done;
  Array.init native_samples (fun _ ->
      let t0 = Clock.now_ns () in
      for _ = 1 to batch do
        pass ()
      done;
      float_of_int (Clock.now_ns () - t0) /. float_of_int batch)

let traced c ~seed tally =
  let traffic, make_s = timed (fun () -> make_traffic c ~seed) in
  let _, create_s = timed (fun () -> make_table c) in
  Gc.compact ();
  let untraced = serve c ~seed in
  Gate.service tally ~expected:(c.n * c.per_worker) untraced;
  Gc.compact ();
  let rp = replica c traffic tally in
  Gc.compact ();
  let table, crash, materialize_us, heap_kb = materialize c traffic in
  let passage_ns, pins = warm_passages c traffic table crash tally in
  let native =
    List.map
      (fun s ->
        (s, Measure.median_or_zero (native_passage_ns ~batch:1000 s)))
      Catalog.native_stacks
  in
  let nat s = List.assoc s native in
  let span name a = Measure.span_metrics name (Measure.summarize a) in
  let metrics =
    List.concat
      [
        [ ("service.traffic.make_s", make_s); ("service.table.create_s", create_s) ];
        span "service.table.materialize_us" materialize_us;
        [ ("service.table.heap_kb_per_shard", heap_kb) ];
        span "service.table.passage_ns" passage_ns;
        span "service.client.flush_ns" rp.flush_ns;
        [
          ("service.client.requests_per_passage", rp.per_passage);
          ("service.loadgen.outside_flush_share", rp.outside_share);
        ];
        List.map (fun (s, v) -> ("native.stack." ^ s ^ ".passage_ns", v)) native;
        [
          ("native.stack.samples", float_of_int native_samples);
          ("native.stack.t1_layer_ns", nat "t1-mcs" -. nat "mcs");
          ("native.stack.t2_layer_ns", nat "t2-mcs" -. nat "t1-mcs");
          ("native.stack.t3_layer_ns", nat "t3-mcs" -. nat "t2-mcs");
          ("trace.overhead.throughput_rps", rp.rp_rps -. served_rps untraced);
        ];
      ]
  in
  let wanted = 3 * c.n in
  (metrics, (untraced.Loadgen.pinned + rp.rp_pins + pins, wanted))
