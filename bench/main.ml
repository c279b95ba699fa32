(* Benchmark harness entry point: runs every experiment of DESIGN.md §4 (or
   the subset named on the command line) and prints its table. Cells are
   computed on a domain pool (--jobs N, default
   Domain.recommended_domain_count; --jobs 1 runs them inline) and
   collected in configuration order, so tables are byte-identical
   for any --jobs. Next to each printed table the harness drops a
   machine-readable BENCH_E<k>.json (parameters, stats, wall-clock) so the
   perf trajectory can be tracked across PRs. *)

let usage () =
  Printf.eprintf
    "usage: main.exe [EXPERIMENT ...] [--jobs N] [--no-json] [--quick]\n\
     known experiments: %s\n%!"
    (String.concat ", " (List.map fst Experiments.all));
  exit 2

(* One "rme-bench/1" document per experiment: every table exactly as
   printed (same strings, so the JSON is as byte-stable as the tables),
   plus the named metrics — Stats histograms etc. — recorded while the
   experiment ran. Report.validate_bench checks this shape; the
   [validate.exe] companion runs it over the emitted files. *)
let write_json ~name ~jobs ~elapsed (tables : Harness.Report.captured list)
    metrics =
  let file = Printf.sprintf "BENCH_%s.json" (String.uppercase_ascii name) in
  let open Sim.Json in
  let table (t : Harness.Report.captured) =
    Obj
      [
        ("title", Str t.Harness.Report.title);
        ("header", List (List.map (fun h -> Str h) t.Harness.Report.header));
        ( "rows",
          List
            (List.map
               (fun row -> List (List.map (fun c -> Str c) row))
               t.Harness.Report.rows) );
      ]
  in
  let doc =
    Obj
      [
        ("schema", Str Harness.Report.bench_schema);
        ("experiment", Str name);
        ("jobs", Int jobs);
        ("wall_clock_s", Float (Float.round (elapsed *. 1000.) /. 1000.));
        ("tables", List (List.map table tables));
        ("metrics", Obj metrics);
      ]
  in
  (match Harness.Report.validate_bench doc with
  | Ok () -> ()
  | Error e -> failwith (Printf.sprintf "%s: invalid bench JSON: %s" file e));
  let oc = open_out file in
  output_string oc (to_string ~pretty:true doc);
  output_char oc '\n';
  close_out oc

let () =
  let requested = ref [] in
  let jobs = ref (Parallel.Pool.default_jobs ()) in
  let emit_json = ref true in
  let rec parse = function
    | [] -> ()
    | "--jobs" :: v :: rest ->
      (match int_of_string_opt v with
      | Some j when j >= 1 -> jobs := j
      | _ -> usage ());
      parse rest
    | "--no-json" :: rest ->
      emit_json := false;
      parse rest
    | "--quick" :: rest ->
      Experiments.quick := true;
      parse rest
    | name :: rest when String.length name > 0 && name.[0] <> '-' ->
      requested := String.lowercase_ascii name :: !requested;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let requested =
    match List.rev !requested with
    | [] -> List.map fst Experiments.all
    | names -> names
  in
  print_endline
    "Recoverable Mutual Exclusion Under System-Wide Failures — experiment \
     harness";
  print_endline
    "(Golab & Hendler, PODC 2018; see DESIGN.md for the experiment index \
     and EXPERIMENTS.md for expected-vs-measured.)";
  Parallel.Pool.with_pool ~jobs:!jobs (fun pool ->
      List.iter
        (fun name ->
          match List.assoc_opt name Experiments.all with
          | Some run ->
            Harness.Report.reset_captured ();
            let t0 = Unix.gettimeofday () in
            run ~pool;
            let elapsed = Unix.gettimeofday () -. t0 in
            Printf.printf "[%s finished in %.1fs]\n%!" name elapsed;
            if !emit_json then
              write_json ~name ~jobs:!jobs ~elapsed
                (Harness.Report.captured ())
                (Harness.Report.captured_metrics ())
          | None ->
            Printf.eprintf "unknown experiment %S (known: %s)\n%!" name
              (String.concat ", " (List.map fst Experiments.all));
            exit 1)
        requested)
