(* Tests for the sharded lock service (lib/service): the seeded Zipf
   sampler, the pregenerated traffic streams (including the prefix
   property that lets --quick bench runs replay a prefix of the full
   workload), the lazily-materialized shard table and its monitors, the
   batching client, and end-to-end Loadgen runs — determinism of the
   served histograms for a fixed seed, the crash-recovery drill, the
   rme-service-metrics/1 document, and the allocation discipline of the
   passage path. *)

open Testutil
module Zipf = Rme_service.Zipf
module Traffic = Rme_service.Traffic
module Table = Rme_service.Table
module Client = Rme_service.Client
module Loadgen = Rme_service.Loadgen
module Crash = Rme_native.Crash

(* --- Zipf --- *)

let zipf_bounds_and_replay () =
  let a = Zipf.create ~theta:0.9 ~seed:7 ~keys:100 () in
  let b = Zipf.create ~theta:0.9 ~seed:7 ~keys:100 () in
  let c = Zipf.create ~theta:0.9 ~seed:8 ~keys:100 () in
  let sa = Array.init 2000 (fun _ -> Zipf.sample a) in
  let sb = Array.init 2000 (fun _ -> Zipf.sample b) in
  let sc = Array.init 2000 (fun _ -> Zipf.sample c) in
  Array.iter
    (fun k ->
      if k < 0 || k >= 100 then Alcotest.failf "sample %d out of range" k)
    sa;
  Alcotest.(check bool) "same seed replays" true (sa = sb);
  Alcotest.(check bool) "different seed differs" true (sa <> sc)

let zipf_skew_shapes_head () =
  let head_share theta =
    let z = Zipf.create ~theta ~seed:3 ~keys:1000 () in
    let hits = ref 0 in
    let n = 20000 in
    for _ = 1 to n do
      if Zipf.sample z < 10 then incr hits
    done;
    float_of_int !hits /. float_of_int n
  in
  let uniform = head_share 0. in
  let skewed = head_share 0.99 in
  (* Exact head mass: uniform 10/1000 = 1%; zipf(0.99) ≈ zeta(10)/zeta(1000). *)
  Alcotest.(check bool) "uniform head is small" true (uniform < 0.03);
  Alcotest.(check bool) "skewed head dominates uniform" true
    (skewed > 10. *. uniform);
  let expected = Zipf.zeta ~theta:0.99 10 /. Zipf.zeta ~theta:0.99 1000 in
  Alcotest.(check bool) "skewed head tracks zeta ratio" true
    (abs_float (skewed -. expected) < 0.05)

let zipf_degenerate_and_invalid () =
  let one = Zipf.create ~theta:0.5 ~seed:1 ~keys:1 () in
  for _ = 1 to 50 do
    Alcotest.(check int) "keys=1 always 0" 0 (Zipf.sample one)
  done;
  let two = Zipf.create ~theta:0.7 ~seed:1 ~keys:2 () in
  for _ = 1 to 200 do
    let k = Zipf.sample two in
    if k < 0 || k > 1 then Alcotest.failf "keys=2 sample %d out of range" k
  done;
  List.iter
    (fun f ->
      match f () with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "expected Invalid_argument")
    [
      (fun () -> Zipf.create ~seed:1 ~keys:0 ());
      (fun () -> Zipf.create ~theta:1.0 ~seed:1 ~keys:10 ());
      (fun () -> Zipf.create ~theta:(-0.1) ~seed:1 ~keys:10 ());
    ]

(* --- Traffic --- *)

let traffic_replay_and_arrivals () =
  let mk () =
    Traffic.make ~theta:0.9 ~rate_rps:50_000. ~think_ns:500 ~seed:42
      ~workers:3 ~per_worker:400 ~key_space:1000 ()
  in
  let a = mk () and b = mk () in
  Alcotest.(check bool) "fingerprints replay" true
    (Traffic.fingerprint a = Traffic.fingerprint b);
  Alcotest.(check bool) "streams replay" true (a.Traffic.streams = b.Traffic.streams);
  let c =
    Traffic.make ~theta:0.9 ~rate_rps:50_000. ~think_ns:500 ~seed:43
      ~workers:3 ~per_worker:400 ~key_space:1000 ()
  in
  Alcotest.(check bool) "seed changes fingerprint" true
    (Traffic.fingerprint a <> Traffic.fingerprint c);
  Array.iter
    (fun st ->
      let arr = st.Traffic.s_arrival_ns in
      for i = 1 to Array.length arr - 1 do
        if arr.(i) < arr.(i - 1) then Alcotest.fail "arrivals not monotone"
      done)
    a.Traffic.streams;
  (* Workers must be decorrelated: same config, different streams. *)
  Alcotest.(check bool) "workers differ" true
    (a.Traffic.streams.(0) <> a.Traffic.streams.(1))

let traffic_prefix_property () =
  (* A stream generated at a smaller per_worker budget is exactly the
     prefix of the full-budget stream — what lets --quick E15 runs serve
     a prefix of the committed full workload. *)
  let full =
    Traffic.make ~theta:0.99 ~rate_rps:10_000. ~seed:9 ~workers:2
      ~per_worker:300 ~key_space:512 ()
  in
  let short =
    Traffic.make ~theta:0.99 ~rate_rps:10_000. ~seed:9 ~workers:2
      ~per_worker:120 ~key_space:512 ()
  in
  Array.iteri
    (fun w st ->
      let fst_ = full.Traffic.streams.(w) in
      Alcotest.(check bool) "key prefix" true
        (Array.sub fst_.Traffic.s_keys 0 120 = st.Traffic.s_keys);
      Alcotest.(check bool) "arrival prefix" true
        (Array.sub fst_.Traffic.s_arrival_ns 0 120 = st.Traffic.s_arrival_ns))
    short.Traffic.streams

let traffic_saturating_think () =
  let t =
    Traffic.make ~theta:0. ~rate_rps:0. ~think_ns:100 ~seed:5 ~workers:1
      ~per_worker:10 ~key_space:8 ()
  in
  let arr = t.Traffic.streams.(0).Traffic.s_arrival_ns in
  Alcotest.(check bool) "think paces exactly" true
    (arr = Array.init 10 (fun i -> (i + 1) * 100))

(* --- Table --- *)

let table_lazy_materialization () =
  let crash = Crash.create ~n:1 () in
  let table =
    Table.create ~shards:64 ~stack:"t1-mcs" ~keys:1000 ~crash ~n:1 ()
  in
  Alcotest.(check int) "nothing materialized" 0 (Table.materialized table);
  let touched = Hashtbl.create 16 in
  for key = 0 to 9 do
    let shard = Table.shard_of table key in
    Hashtbl.replace touched shard ();
    Table.acquire table ~pid:1 ~epoch:1 ~shard;
    Table.serve table ~shard;
    Table.release table ~pid:1 ~epoch:1 ~shard
  done;
  Alcotest.(check int) "one lock per touched shard"
    (Hashtbl.length touched) (Table.materialized table);
  Alcotest.(check int) "completions counted" 10 (Table.completions table);
  Alcotest.(check int) "no ME violations" 0 (Table.me_violations table);
  Alcotest.(check int) "no lost updates" 0 (Table.lost_update_shards table);
  Alcotest.(check int) "all drained at epoch 1" 0
    (Table.undrained table ~epoch:1);
  (* A sweep visits exactly the materialized shards (n=1: all of them). *)
  let swept = Table.sweep table ~pid:1 ~epoch:1 in
  Alcotest.(check int) "sweep covers materialized" (Hashtbl.length touched)
    swept;
  match Table.create ~stack:"no-such-stack" ~keys:10 ~crash ~n:1 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown stack accepted"

let table_shard_spread () =
  (* The mix-based key->shard map must hit every shard of a small table
     given enough keys (i.e. it is not constant or badly clustered). *)
  let shards = 16 in
  let seen = Array.make shards false in
  for key = 0 to 4095 do
    let s = Table.shard_of_key ~shards key in
    if s < 0 || s >= shards then Alcotest.failf "shard %d out of range" s;
    seen.(s) <- true
  done;
  Alcotest.(check bool) "every shard reachable" true
    (Array.for_all Fun.id seen)

(* --- Client --- *)

let client_batches_by_shard () =
  let crash = Crash.create ~n:1 () in
  let table =
    Table.create ~shards:8 ~stack:"t1-mcs" ~keys:4096 ~crash ~n:1 ()
  in
  (* Pick keys landing on two distinct shards. *)
  let key_on shard =
    let rec find k =
      if Table.shard_of table k = shard then k else find (k + 1)
    in
    find 0
  in
  let s0 = Table.shard_of table 0 in
  let s1 = (s0 + 1) mod 8 in
  let k0 = key_on s0 and k0' = key_on s0 + 0 and k1 = key_on s1 in
  let served = ref [] in
  let client =
    Client.create table ~pid:1 ~cap:8 ~on_served:(fun ~tag ~shard ->
        served := (tag, shard) :: !served)
  in
  Client.submit client ~key:k0 ~tag:10;
  Client.submit client ~key:k1 ~tag:11;
  Client.submit client ~key:k0' ~tag:12;
  Alcotest.(check int) "pending" 3 (Client.pending client);
  Client.flush client ~epoch:1;
  Alcotest.(check int) "buffer empty" 0 (Client.pending client);
  Alcotest.(check int) "one passage per distinct shard" 2
    (Client.batches client);
  Alcotest.(check int) "served" 3 (Client.served client);
  Alcotest.(check int) "same-shard pair batched" 2 (Client.max_batch client);
  let got = List.sort compare !served in
  Alcotest.(check bool) "tags and shards reported" true
    (got = List.sort compare [ (10, s0); (12, s0); (11, s1) ]);
  Alcotest.(check int) "table completions" 3 (Table.completions table);
  match Client.create table ~pid:1 ~cap:63 ~on_served:(fun ~tag:_ ~shard:_ -> ()) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "cap over 62 accepted"

(* --- Loadgen --- *)

let run_small ?(stack = "t1-mcs") ?(n = 2) ?(keys = 512) ?(shards = 32)
    ?(theta = 0.9) ?rate_rps ?drill_after ?alloc_probe ?(seed = 11)
    ?(per_worker = 400) ?traffic_budget () =
  Loadgen.run ~stack ?rate_rps ?drill_after ?alloc_probe ?traffic_budget
    ~shards ~theta ~batch:8 ~seed ~n ~keys ~per_worker ()

let assert_service_clean what r =
  (match Loadgen.check_clean r with
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" what e);
  Alcotest.(check bool) (what ^ ": served exactly once") true
    (Loadgen.served_exactly r)

let loadgen_deterministic_histograms () =
  let a = run_small () and b = run_small () in
  assert_service_clean "run a" a;
  assert_service_clean "run b" b;
  Alcotest.(check bool) "traffic replays" true
    (a.Loadgen.traffic_fingerprint = b.Loadgen.traffic_fingerprint);
  Alcotest.(check bool) "served histograms replay" true
    (a.Loadgen.shard_served = b.Loadgen.shard_served);
  Alcotest.(check int) "all served"
    (2 * 400)
    (Loadgen.total_served a);
  (* The shrunk run serves a prefix of the full workload: its issued
     histogram is what the full streams' first 150 requests produce. *)
  let short = run_small ~per_worker:150 ~traffic_budget:400 () in
  assert_service_clean "prefix run" short;
  Alcotest.(check int) "prefix issued total" (2 * 150)
    (Array.fold_left ( + ) 0 short.Loadgen.issued)

let loadgen_drill_drains () =
  let r =
    run_small ~stack:"t3-mcs" ~per_worker:3000 ~drill_after:0.02 ()
  in
  assert_service_clean "drill run" r;
  Alcotest.(check int) "one crash" 1 r.Loadgen.crashes;
  match r.Loadgen.drill with
  | None -> Alcotest.fail "drill report missing"
  | Some d ->
    Alcotest.(check bool) "epoch bumped" true (d.Loadgen.d_epoch >= 2);
    Alcotest.(check int) "all hot shards drained" d.Loadgen.d_hot
      d.Loadgen.d_drained;
    Alcotest.(check bool) "drain time measured" true (d.Loadgen.d_drain_s > 0.)

(* Regression: the drill at n=4 under heavy skew. Before the re-entry
   protocol repaired the engaged shard first (Table.repair_engaged),
   workers sweeping each other's abandoned shards deadlocked on the
   locks' recovery barriers — reproducibly at this shape (the E15 drill
   row), never at the n=2 shape above. See DESIGN.md §5.17. *)
let loadgen_drill_n4_crossed_partitions () =
  let r =
    run_small ~stack:"t3-mcs" ~n:4 ~keys:100_000 ~shards:256 ~theta:0.99
      ~per_worker:2500 ~drill_after:0.02 ~seed:15 ()
  in
  assert_service_clean "n=4 drill run" r;
  match r.Loadgen.drill with
  | None -> Alcotest.fail "drill report missing"
  | Some d ->
    Alcotest.(check int) "all hot shards drained" d.Loadgen.d_hot
      d.Loadgen.d_drained

let loadgen_open_loop_latency () =
  let r = run_small ~rate_rps:200_000. ~per_worker:200 () in
  assert_service_clean "open-loop run" r;
  Alcotest.(check bool) "latency kind is arrival" true r.Loadgen.open_loop;
  Alcotest.(check int) "every served request sampled"
    (Loadgen.total_served r)
    (Sim.Stats.count r.Loadgen.latency_ns);
  Alcotest.(check bool) "hot-shard histograms present" true
    (r.Loadgen.shard_latency <> [])

let loadgen_metrics_validate () =
  let r = run_small ~drill_after:0.01 ~per_worker:1500 () in
  let doc = Sim.Json.parse (Loadgen.metrics_json r) in
  (match Sim.Json.Schema.check Loadgen.schema doc with
  | Ok () -> ()
  | Error e -> Alcotest.failf "metrics rejected: %s" e);
  (* Tampered schema must be rejected. *)
  let bad =
    match doc with
    | Sim.Json.Obj kvs ->
      Sim.Json.Obj
        (List.map
           (function
             | "schema", _ -> ("schema", Sim.Json.Str "rme-service-metrics/0")
             | kv -> kv)
           kvs)
    | _ -> assert false
  in
  match Sim.Json.Schema.check Loadgen.schema bad with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "wrong schema accepted"

let loadgen_alloc_free_passages () =
  (* Small key space so every shard materializes during warmup: the gate
     is about the steady passage path, not cold materialization. *)
  let r =
    run_small ~keys:64 ~shards:16 ~n:1 ~per_worker:5000 ~alloc_probe:true ()
  in
  assert_service_clean "alloc probe run" r;
  match r.Loadgen.alloc_words_per_req with
  | None -> Alcotest.fail "alloc probe did not fire"
  | Some w ->
    if w > 1.0 then
      Alcotest.failf "service passage path allocates: %.2f words/request" w

let () =
  Alcotest.run "service"
    [
      ( "zipf",
        [
          case "bounds-replay" zipf_bounds_and_replay;
          case "skew" zipf_skew_shapes_head;
          case "degenerate" zipf_degenerate_and_invalid;
        ] );
      ( "traffic",
        [
          case "replay" traffic_replay_and_arrivals;
          case "prefix" traffic_prefix_property;
          case "think-pacing" traffic_saturating_think;
        ] );
      ( "table",
        [
          case "lazy-materialization" table_lazy_materialization;
          case "shard-spread" table_shard_spread;
        ] );
      ("client", [ case "batches-by-shard" client_batches_by_shard ]);
      ( "loadgen",
        [
          case "deterministic-histograms" loadgen_deterministic_histograms;
          case "drill-drains" loadgen_drill_drains;
          case "drill-n4-crossed-partitions" loadgen_drill_n4_crossed_partitions;
          case "open-loop-latency" loadgen_open_loop_latency;
          case "metrics-validate" loadgen_metrics_validate;
          case "alloc-free-passages" loadgen_alloc_free_passages;
        ] );
    ]
