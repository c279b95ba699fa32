(* The benchmark's metric names, units and directions — the one list the
   emitter draws from and that BENCHMARK.json must repeat exactly
   ([check_spec] enforces it on every run and in the tests). *)

type better = Lower | Higher

type metric = { name : string; unit_ : string; better : better }

let m ?(better = Lower) name unit_ = { name; unit_; better }

(* Every workload reports every end-to-end metric; perfbench/WORKLOADS.md
   gives each one's meaning per workload, and why the work is timed in
   process CPU seconds rather than wall seconds. *)
let end_to_end = [ m "run_cpu_s" "s"; m "setup_s" "s"; m "peak_rss_mb" "MB" ]

(* A span summarised from raw samples: median, the highest percentile
   with ten samples beyond it, that percentile's level, and the count. *)
let span name unit_ =
  [
    m (name ^ ".p50") unit_;
    m (name ^ ".tail") unit_;
    m ~better:Higher (name ^ ".tail_pct") "%";
    m ~better:Higher (name ^ ".count") "count";
  ]

let native_stacks = [ "mcs"; "t1-mcs"; "t2-mcs"; "t3-mcs" ]

let mc_counts =
  [ ("runs", Lower); ("steps", Lower); ("distinct_states", Lower);
    ("pruned_runs", Higher); ("pruned_branches", Higher);
    ("sleep_pruned", Higher) ]

let per_layer =
  List.concat
    [
      [ m "service.traffic.make_s" "s"; m "service.table.create_s" "s" ];
      span "service.table.materialize_us" "us";
      [ m "service.table.heap_kb_per_shard" "KB" ];
      span "service.table.passage_ns" "ns";
      span "service.client.flush_ns" "ns";
      [
        m ~better:Higher "service.client.requests_per_passage" "ratio";
        m "service.loadgen.outside_flush_share" "ratio";
      ];
      List.map
        (fun s -> m ("native.stack." ^ s ^ ".passage_ns") "ns")
        native_stacks;
      [
        m ~better:Higher "native.stack.samples" "count";
        m "native.stack.t1_layer_ns" "ns";
        m "native.stack.t2_layer_ns" "ns";
        m "native.stack.t3_layer_ns" "ns";
      ];
      List.map
        (fun (c, better) -> m ~better ("harness.model_check." ^ c) "count")
        mc_counts;
      [
        m "harness.model_check.steps_per_run" "ratio";
        m "harness.model_check.states_per_run" "ratio";
        m ~better:Higher "harness.model_check.pruned_run_share" "ratio";
        m "harness.model_check.run_us" "us";
        m "harness.model_check.step_ns" "ns";
      ];
      span "harness.model_check.replay_run_us" "us";
      [
        m "harness.model_check.replay_step_ns" "ns";
        m "parallel.vset.op_ns" "ns";
        m "parallel.vset.heap_mb" "MB";
        m ~better:Higher "parallel.pool.speedup" "x";
        m ~better:Higher "parallel.pool.cpu_share" "ratio";
      ];
      span "harness.scenario.build_us" "us";
      [
        m "trace.overhead.throughput_rps" "1/s";
        m "trace.overhead.search_s" "s";
      ];
    ]

let better_to_string = function Lower -> "lower" | Higher -> "higher"

(* The final result line: exactly the keys the benchmark contract names.
   [values] must cover every metric of [set], in any order. *)
let result_json ~correct ~attempted ~failed ~set values =
  let metric x =
    match List.assoc_opt x.name values with
    | Some v when Float.is_finite v ->
      ( x.name,
        Sim.Json.Obj [ ("value", Sim.Json.Float v); ("unit", Sim.Json.Str x.unit_) ] )
    | Some _ -> failwith ("perfbench: non-finite value for " ^ x.name)
    | None -> failwith ("perfbench: no value for " ^ x.name)
  in
  List.iter
    (fun (k, _) ->
      if not (List.exists (fun x -> x.name = k) set) then
        failwith ("perfbench: undeclared metric " ^ k))
    values;
  Sim.Json.Obj
    [
      ("correct", Sim.Json.Bool correct);
      ("attempted", Sim.Json.Int attempted);
      ("failed", Sim.Json.Int failed);
      ("metrics", Sim.Json.Obj (List.map metric set));
    ]

(* BENCHMARK.json's [end_to_end] and [per_layer] lists must name the same
   metrics, with the same units and directions, in the same order. *)
let check_spec (spec : Sim.Json.t) =
  let listed key =
    match Sim.Json.member key spec with
    | Some (Sim.Json.List xs) ->
      List.map
        (fun x ->
          let field f =
            match Sim.Json.member f x with Some (Sim.Json.Str s) -> s | _ -> "?"
          in
          (field "name", field "unit", field "better"))
        xs
    | _ -> []
  in
  let ours set =
    List.map (fun x -> (x.name, x.unit_, better_to_string x.better)) set
  in
  let diff key set =
    let theirs = listed key and ours = ours set in
    if theirs = ours then []
    else
      let show (n, u, b) = Printf.sprintf "%s[%s,%s]" n u b in
      let missing = List.filter (fun x -> not (List.mem x theirs)) ours in
      let extra = List.filter (fun x -> not (List.mem x ours)) theirs in
      [
        Printf.sprintf "%s differs: emitted but not declared {%s}; declared \
                        but not emitted {%s}%s"
          key
          (String.concat " " (List.map show missing))
          (String.concat " " (List.map show extra))
          (if missing = [] && extra = [] then " (order)" else "");
      ]
  in
  match diff "end_to_end" end_to_end @ diff "per_layer" per_layer with
  | [] -> Ok ()
  | errs -> Error (String.concat "; " errs)

let check_spec_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> (
    match Sim.Json.parse text with
    | exception Sim.Json.Parse_error e -> Error (path ^ ": " ^ e)
    | spec -> check_spec spec)
