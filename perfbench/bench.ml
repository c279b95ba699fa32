(* perfbench: the end-to-end benchmark of the lock service and the model
   checker, with a separate traced run for per-layer numbers.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   Workloads (why each was chosen: perfbench/WORKLOADS.md):
     svc-hot    Loadgen.run, T3(MCS), Zipf 0.99 over 1024 shards
     svc-cold   Loadgen.run, T3(MCS), uniform over 4096 shards
     mc-sym     Model_check.explore, T2(MCS) n=3 d2 c1, Sym, jobs 1
     mc-replay  Model_check.explore, T2(MCS) n=2 d2 c1, none, jobs 1

   The untraced run repeats the workload until S seconds have passed and
   reports medians; the traced run measures each layer once. Both print
   a run record line, then the result line (the last line of stdout). *)

let usage =
  "bench.exe --workload svc-hot|svc-cold|mc-sym|mc-replay --seed N \
   --seconds S --trace 0|1"

let die msg =
  prerr_endline ("perfbench: " ^ msg);
  exit 2

type workload = Svc of Svc.config | Mc of Mc.config

let workloads =
  [
    ("svc-hot", Svc Svc.hot);
    ("svc-cold", Svc Svc.cold);
    ("mc-sym", Mc Mc.sym);
    ("mc-replay", Mc Mc.replay);
  ]

let min_repeats = 3

type repeat = {
  values : (string * float) list;
  wall : float;
  cpu : float;
  steal : float;  (** host-wide steal seconds during the repeat *)
}

(* Repeat the workload until [seconds] have passed — stopping early when
   the next repeat, at the median pace so far, would overrun — and at
   least [min_repeats] times. The peak RSS is read after the first
   repeat: the OCaml 5.1 heap never shrinks, so later repeats would make
   it depend on how many fit in the run. *)
let repeats ~seconds once =
  let t_end = Unix.gettimeofday () +. seconds in
  let peak = ref 0. in
  let rec go acc =
    let k = List.length acc in
    let pace = Measure.median_or_zero (Array.of_list (List.map (fun r -> r.wall) acc)) in
    if k >= min_repeats && Unix.gettimeofday () +. pace > t_end then List.rev acc
    else begin
      let h = Host.start () in
      let values = once () in
      let d = Host.since h in
      if k = 0 then peak := Host.peak_rss_mb ();
      go
        ({ values; wall = d.Host.d_wall; cpu = d.Host.d_cpu; steal = d.Host.d_steal }
        :: acc)
    end
  in
  let rs = go [] in
  (rs, !peak)

let untraced w ~seed ~seconds tally =
  let pins = ref max_int and wanted = ref 0 in
  let once () =
    match w with
    | Svc c ->
      let values, pinned = Svc.untraced c ~seed tally in
      pins := min !pins pinned;
      wanted := c.Svc.n;
      values
    | Mc c -> Mc.untraced c tally
  in
  let rs, peak = repeats ~seconds once in
  let metric name =
    let xs = Array.of_list (List.map (fun r -> List.assoc name r.values) rs) in
    (name, Measure.median_or_zero xs)
  in
  let per_repeat =
    List.map
      (fun r ->
        Sim.Json.Obj
          (List.map (fun (k, v) -> (k, Sim.Json.Float v)) r.values
          @ [
              ("wall_s", Sim.Json.Float r.wall);
              ("cpu_s", Sim.Json.Float r.cpu);
              ("host_steal_s", Sim.Json.Float r.steal);
            ]))
      rs
  in
  ( ("peak_rss_mb", peak) :: List.map metric [ "run_cpu_s"; "setup_s" ],
    ((if !wanted = 0 then 0 else !pins), !wanted),
    [ ("repeats", Sim.Json.List per_repeat) ] )

(* Every per-layer metric is printed on every traced run; the layers a
   workload does not run read 0. *)
let traced w ~seed tally =
  let measured, pins =
    match w with
    | Svc c -> Svc.traced c ~seed tally
    | Mc c -> (Mc.traced c ~seed tally, (0, 0))
  in
  ( List.map
      (fun m ->
        let name = m.Catalog.name in
        (name, Option.value (List.assoc_opt name measured) ~default:0.))
      Catalog.per_layer,
    pins )

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0. and trace = ref (-1) in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measuring time of the untraced run");
      ("--trace", Arg.Set_int trace, "0|1 untraced end-to-end or traced per-layer run");
    ]
    (fun a -> die ("unexpected argument " ^ a))
    usage;
  let w =
    match List.assoc_opt !workload workloads with
    | Some w -> w
    | None -> die ("unknown workload '" ^ !workload ^ "'; " ^ usage)
  in
  if !seed < 0 then die "--seed must be a nonnegative integer";
  if not (!seconds > 0.) then die "--seconds must be positive";
  if !trace <> 0 && !trace <> 1 then die "--trace must be 0 or 1";
  (match Catalog.check_spec_file "BENCHMARK.json" with
  | Ok () -> ()
  | Error e -> die ("BENCHMARK.json does not match the emitted metrics: " ^ e));
  let host = Host.start () in
  let tally = Gate.tally () in
  let metrics, set, pins, extra =
    if !trace = 1 then
      let m, pins = traced w ~seed:!seed tally in
      (m, Catalog.per_layer, pins, [])
    else
      let m, pins, extra = untraced w ~seed:!seed ~seconds:!seconds tally in
      (m, Catalog.end_to_end, pins, extra)
  in
  List.iter (fun n -> prerr_endline ("perfbench: FAILED: " ^ n)) (List.rev tally.Gate.notes);
  print_endline
    (Sim.Json.to_string
       (Host.record host ~workload:!workload ~seed:!seed ~trace:(!trace = 1)
          ~pins ~extra));
  print_endline
    (Sim.Json.to_string
       (Catalog.result_json
          ~correct:(tally.Gate.failed = 0 && tally.Gate.attempted > 0)
          ~attempted:tally.Gate.attempted ~failed:tally.Gate.failed ~set metrics))
