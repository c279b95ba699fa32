(* Command-line interface: run individual simulations, model-checking
   searches and native stress runs without writing any code.

     rme list
     rme run --stack t3-mcs --model dsm -n 8 --crash-mean 300
     rme model-check --scenario rme --stack t2-mcs -n 2 -d 1 -c 1
     rme native --stack t3-mcs -n 4 --crash-interval 1.0
     rme service --stack t3-mcs -n 4 --keys 1000000 --theta 0.99
*)

open Cmdliner

let model_conv =
  let parse s =
    try Ok (Sim.Memory.model_of_string s)
    with Invalid_argument m -> Error (`Msg m)
  in
  Arg.conv (parse, Sim.Memory.pp_model)

(* Numeric flags validate at parse time, the way validate.ml's
   --tolerance does: a zero process count, a negative crash interval or
   a NaN window used to be accepted here and fail as an obscure
   Invalid_argument (or a silent wedge) deep inside the harness. Each
   wrapper names the constraint in its error message. *)

let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 1 -> Ok v
    | Some _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %s" s))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_int =
  let parse s =
    match int_of_string_opt s with
    | Some v when v >= 0 -> Ok v
    | Some _ ->
      Error (`Msg (Printf.sprintf "expected a non-negative integer, got %s" s))
    | None -> Error (`Msg (Printf.sprintf "expected an integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_float =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0. -> Ok v
    | Some _ ->
      Error (`Msg (Printf.sprintf "expected a positive finite number, got %s" s))
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let nonneg_float =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v >= 0. -> Ok v
    | Some _ ->
      Error
        (`Msg (Printf.sprintf "expected a non-negative finite number, got %s" s))
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

(* Probabilities and Zipf skew live in half-open unit ranges; checking
   here turns Zipf.dist's Invalid_argument into a usage error. *)
let unit_float ~lo_open ~hi_closed =
  let ok v =
    Float.is_finite v
    && (if lo_open then v > 0. else v >= 0.)
    && if hi_closed then v <= 1. else v < 1.
  in
  let parse s =
    match float_of_string_opt s with
    | Some v when ok v -> Ok v
    | Some _ ->
      Error
        (`Msg
           (Printf.sprintf "expected a number in %s0, 1%s, got %s"
              (if lo_open then "(" else "[")
              (if hi_closed then "]" else ")")
              s))
    | None -> Error (`Msg (Printf.sprintf "expected a number, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let model_arg =
  Arg.(
    value
    & opt model_conv Sim.Memory.Cc
    & info [ "model"; "m" ] ~docv:"MODEL" ~doc:"Cost model: cc or dsm.")

let n_arg =
  Arg.(
    value & opt pos_int 4
    & info [ "n" ] ~docv:"N" ~doc:"Number of processes.")

let stack_arg =
  Arg.(
    value
    & opt string "t3-mcs"
    & info [ "stack"; "s" ] ~docv:"STACK"
        ~doc:"Recoverable lock stack (see $(b,rme list)).")

(* The native substrate's knobs, shared by `native` and `service`. *)

let spin_policy =
  Arg.enum
    (List.map
       (fun m -> (Rme_native.Backoff.mode_name m, m))
       Rme_native.Backoff.modes)

let pin_arg =
  Arg.(
    value & flag
    & info [ "pin" ]
        ~doc:
          "Pin worker domains to cores (worker $(i,p) to core (p-1) mod \
           cores; Linux affinity, best-effort no-op elsewhere). The \
           report says how many workers actually landed.")

let spin_arg =
  Arg.(
    value
    & opt spin_policy Rme_native.Backoff.Exponential
    & info [ "spin" ] ~docv:"POLICY"
        ~doc:
          "Spin-wait policy between lock re-checks: $(b,backoff) (seeded \
           capped exponential, the default), $(b,relax) (one cpu_relax \
           per miss plus a periodic OS yield — the pre-backoff \
           behaviour), or $(b,spin) (pure cpu_relax; E14's bare \
           ablation).")

let no_padding_arg =
  Arg.(
    value & flag
    & info [ "no-padding" ]
        ~doc:
          "Allocate backend cells back-to-back instead of one per cache \
           line (the false-sharing ablation of E14).")

let run_for_arg =
  Arg.(
    value
    & opt (some pos_float) None
    & info [ "run-for" ] ~docv:"SECONDS"
        ~doc:
          "Close the run's window after $(docv) seconds: workers stop \
           starting new work, finish what is in flight, and leave the \
           rest of their budget undone.")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed (runs replay).")

let jobs_arg =
  Arg.(
    value
    & opt pos_int (Parallel.Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:
          "Worker domains (default: the recommended domain count). \
           $(b,run) and $(b,native) fan their $(b,--replicas) out over \
           them; $(b,model-check) fans out its $(b,--swarm) members, and \
           a single search runs on one domain. Simulator output \
           ($(b,run), $(b,model-check)) is identical for any N.")

let passages_arg =
  Arg.(
    value & opt pos_int 100
    & info [ "passages"; "p" ] ~doc:"Passages per process.")

let metrics_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics" ] ~docv:"FILE"
        ~doc:
          "Write the run's machine-readable metrics (JSON, including RMR \
           and step histograms) to $(docv). With --replicas, the first \
           seed's metrics are written.")

let write_file file contents =
  let oc = open_out_bin file in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

(* --- list --- *)

let list_cmd =
  let run () =
    print_endline "Recoverable stacks (--stack):";
    List.iter (Printf.printf "  %s\n") Rme.Stack.recoverable_names;
    print_endline "Conventional locks (usable as unprotected-<name>):";
    List.iter (Printf.printf "  %s\n") Rme.Stack.conventional_names;
    print_endline "Native stacks (rme native --stack):";
    List.iter (Printf.printf "  %s\n") Rme_native.Stack.recoverable_names;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List available lock stacks.")
    Term.(const run $ const ())

(* --- run --- *)

let run_cmd =
  let crash_mean =
    Arg.(
      value & opt (some pos_int) None
      & info [ "crash-mean" ]
          ~doc:"Inject crashes with this mean interval in steps.")
  in
  let bursty =
    Arg.(value & flag & info [ "bursty" ] ~doc:"Crashes arrive in bursts.")
  in
  let bias =
    Arg.(
      value
      & opt (some (unit_float ~lo_open:true ~hi_closed:true)) None
      & info [ "bias" ]
          ~doc:"Use a low-ID-biased schedule with this pick probability.")
  in
  let max_steps =
    Arg.(
      value & opt pos_int 10_000_000
      & info [ "max-steps" ] ~doc:"Hard step budget.")
  in
  let replicas =
    Arg.(
      value & opt pos_int 1
      & info [ "replicas" ] ~docv:"R"
          ~doc:
            "Run R independent replicas with seeds SEED..SEED+R-1 (on the \
             --jobs pool) and print each report in seed order.")
  in
  let run stack model n passages seed crash_mean bursty bias max_steps jobs
      replicas metrics =
    let one seed =
      let base =
        match bias with
        | Some p -> Sim.Schedule.geometric_bias ~seed p
        | None -> Sim.Schedule.uniform ~seed
      in
      let schedule =
        match crash_mean with
        | Some mean ->
          Sim.Schedule.with_random_crashes ~seed:(seed + 1) ~mean ~bursty base
        | None -> base
      in
      Harness.Driver.run ~max_steps ~passages ~n ~model
        ~make:(fun mem -> Rme.Stack.recoverable mem stack)
        ~schedule ()
    in
    let finish report =
      Format.printf "%a@." Harness.Driver.pp_report report;
      match Harness.Driver.check_clean report with
      | Ok () ->
        print_endline "clean";
        0
      | Error e ->
        Printf.printf "NOT CLEAN: %s\n" e;
        1
    in
    let save report =
      Option.iter
        (fun file -> write_file file (Harness.Driver.metrics_json report))
        metrics
    in
    if replicas <= 1 then begin
      let report = one seed in
      save report;
      finish report (* the legacy single-run path *)
    end
    else
      Parallel.Pool.with_pool ~jobs (fun pool ->
          let seeds = List.init replicas (fun i -> seed + i) in
          let reports = Parallel.Pool.map pool one seeds in
          save (List.hd reports);
          List.fold_left2
            (fun acc seed report ->
              Printf.printf "--- seed %d ---\n" seed;
              max acc (finish report))
            0 seeds reports)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate one configuration and print its report.")
    Term.(
      const run $ stack_arg $ model_arg $ n_arg $ passages_arg $ seed_arg
      $ crash_mean $ bursty $ bias $ max_steps $ jobs_arg $ replicas
      $ metrics_arg)

(* --- model-check --- *)

(* Scenario names come from the shared registry (Harness.Scenario), not a
   hard-coded enum: a builder-registered scenario appears in
   `model-check --scenario`, `scenario list` and `scenario run` at once. *)
let scenario_name_conv =
  let parse s =
    if Option.is_some (Harness.Scenario.find s) then Ok s
    else
      Error
        (`Msg
           (Printf.sprintf "unknown scenario %S; registered: %s" s
              (String.concat ", " (Harness.Scenario.names ()))))
  in
  Arg.conv (parse, Format.pp_print_string)

(* The registered scenario [name], built from the command-line knobs. *)
let build_scenario name ~stack ~n ~model ~passages ~no_csr ~crash_bound =
  Option.get (Harness.Scenario.find name)
    {
      Harness.Scenario.sp_stack = stack;
      sp_n = n;
      sp_model = model;
      sp_passages = passages;
      sp_check_csr = not no_csr;
      sp_crash_bound = crash_bound;
    }

let pp_minimized n (m : Harness.Shrink.result) =
  Printf.printf
    "minimized schedule: %d decisions, %d interventions (%d probes)\n"
    (Array.length m.Harness.Shrink.s_trace)
    (List.length m.Harness.Shrink.s_interventions)
    m.Harness.Shrink.s_probes;
  List.iter
    (fun (pos, d) ->
      Printf.printf "  @%d: %s\n" pos (Harness.Model_check.describe_decision ~n d))
    m.Harness.Shrink.s_interventions;
  List.iter
    (fun v -> Printf.printf "  reproduces: %s\n" v)
    m.Harness.Shrink.s_violations

let model_check_cmd =
  let scenario =
    Arg.(
      value
      & opt scenario_name_conv "rme"
      & info [ "scenario" ] ~docv:"NAME"
          ~doc:
            "What to check — any scenario from the shared registry (see \
             $(b,rme scenario list)).")
  in
  let dbound =
    Arg.(
      value & opt nonneg_int 1
      & info [ "d" ] ~doc:"Divergence (preemption) bound.")
  in
  let cbound =
    Arg.(value & opt nonneg_int 0 & info [ "c" ] ~doc:"Crash bound.")
  in
  let cobound =
    Arg.(
      value & opt nonneg_int 0
      & info [ "co" ]
          ~doc:
            "Independent single-process crash bound (the Golab-Ramaraju \
             failure model; see experiment E11). Branches every victim \
             at every choice point. Composes with every $(b,--reduce) \
             level including $(b,sym): the consumed crash-one budget is \
             a count, not a victim set, so it is permutation-invariant \
             and qualifies the visited state exactly as under \
             $(b,por).")
  in
  let max_runs =
    Arg.(value & opt pos_int 200_000 & info [ "max-runs" ] ~doc:"Run budget.")
  in
  let passages =
    Arg.(
      value & opt pos_int 1 & info [ "passages" ] ~doc:"Passages per process.")
  in
  let no_csr =
    Arg.(
      value & flag
      & info [ "no-csr" ]
          ~doc:"Do not flag CSR violations (for stacks that do not claim it).")
  in
  let reduce =
    Arg.(
      value
      & opt
          (enum
             [
               ("none", Harness.Model_check.No_reduction);
               ("dedup", Harness.Model_check.Dedup);
               ("por", Harness.Model_check.Por);
               ("sym", Harness.Model_check.Sym);
             ])
          Harness.Model_check.No_reduction
      & info [ "reduce" ] ~docv:"LEVEL"
          ~doc:
            "State-space reduction: $(b,none) (legacy exhaustive \
             enumeration), $(b,dedup) (prune runs that re-reach a \
             fingerprinted state at covered budget), $(b,por) (dedup \
             plus partial-order reduction of commuting preemptions) or \
             $(b,sym) (por plus process-symmetry quotient and sleep \
             sets — DESIGN.md \xC2\xA75.19). Verdicts are identical at \
             every level (E17 pins sym parity empirically; por stays \
             verdict-authoritative).")
  in
  let vset_bits_default = 24 in
  let vset =
    Arg.(
      value
      & opt (enum [ ("exact", `Exact); ("bitstate", `Bitstate) ]) `Exact
      & info [ "vset" ] ~docv:"MODE"
          ~doc:
            "Visited-set representation under $(b,--reduce): $(b,exact) \
             (sharded map, verdict-authoritative) or $(b,bitstate) \
             (fixed-memory double-hashed bit array, SPIN-supertrace \
             style — for searches whose exact set no longer fits; can \
             only under-explore, never fabricate a violation; measured \
             occupancy and collision bound land in the outcome JSON).")
  in
  let vset_bits =
    Arg.(
      value
      & opt pos_int vset_bits_default
      & info [ "vset-bits" ] ~docv:"K"
          ~doc:
            "log2 of the bitstate array size in bits (10..36; default \
             24 = 2 MiB). Ignored under $(b,--vset exact).")
  in
  let swarm =
    Arg.(
      value & opt nonneg_int 0
      & info [ "swarm" ] ~docv:"S"
          ~doc:
            "Run $(docv) diversified partial searches instead of one \
             exhaustive one: members cycle through the base bounds, \
             +1 divergence, +1 crash and +1 crash-one budgets, each \
             with its own bitstate salt so members miss different \
             states, fanned over the worker pool ($(b,--jobs) domains; \
             each member searches sequentially). Any member's violation \
             fails the gate; $(b,--out) then records the merged outcome \
             plus a per-member $(b,swarm) array. Implies $(b,--vset \
             bitstate) for the members.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:
            "Also write the outcome (configuration, counters, every \
             recorded violation, the violating decision trace and its \
             minimized schedule) as rme-mc-outcome/1 JSON to $(docv) — \
             the nightly deep-check uploads these as artifacts.")
  in
  let stop_on_first =
    Arg.(
      value & flag
      & info [ "stop-on-first" ]
          ~doc:"Stop the search at the first recorded violation.")
  in
  let no_shrink =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:
            "Do not minimize the violating schedule (shrinking replays \
             the scenario a few hundred times; it is cheap, but \
             exactly reproducing legacy output may matter).")
  in
  let expect_violation =
    Arg.(
      value & flag
      & info [ "expect-violation" ]
          ~doc:
            "Invert the exit code: succeed iff a violation IS found \
             (for known-negative gates like scenario-smoke).")
  in
  let run scenario stack model n dbound cbound cobound max_runs passages
      no_csr reduction vset vset_bits swarm out jobs stop_on_first no_shrink
      expect_violation =
    if vset_bits < 10 || vset_bits > 36 then begin
      Printf.eprintf "rme: --vset-bits must be in 10..36 (got %d)\n" vset_bits;
      exit 2
    end;
    let sc =
      Harness.Scenario.to_scenario
        (build_scenario scenario ~stack ~n ~model ~passages ~no_csr
           ~crash_bound:cbound)
    in
    (* Swarm: S diversified partial searches — member i cycles through
       {base; d+1; c+1; co+1} bounds and salts its own bitstate, so
       members miss different states. Each member searches sequentially;
       the pool fans members across domains. The merged
       verdict is any-violation-wins. *)
    let swarm_members =
      List.init swarm (fun i ->
          let d, c, co =
            match i mod 4 with
            | 0 -> (dbound, cbound, cobound)
            | 1 -> (dbound + 1, cbound, cobound)
            | 2 -> (dbound, cbound + 1, cobound)
            | _ -> (dbound, cbound, cobound + 1)
          in
          (i, d, c, co))
    in
    let o, swarm_json =
      if swarm = 0 then begin
        let vset_mode =
          match vset with
          | `Exact -> Harness.Model_check.Exact
          | `Bitstate ->
            Harness.Model_check.Bitstate { bits = vset_bits; salt = 0 }
        in
        let o =
          Harness.Model_check.explore ~divergence_bound:dbound
            ~crash_bound:cbound ~crash_one_bound:cobound ~max_runs ~reduction
            ~vset_mode ~stop_on_first sc
        in
        (o, None)
      end
      else begin
        let explore_member (i, d, c, co) =
          Harness.Model_check.explore ~divergence_bound:d ~crash_bound:c
            ~crash_one_bound:co ~max_runs ~reduction
            ~vset_mode:
              (Harness.Model_check.Bitstate { bits = vset_bits; salt = i + 1 })
            ~stop_on_first sc
        in
        let outs =
          if jobs <= 1 then List.map explore_member swarm_members
          else
            Parallel.Pool.with_pool ~jobs (fun pool ->
                Parallel.Pool.map pool explore_member swarm_members)
        in
        List.iter2
          (fun (i, d, c, co) (o : Harness.Model_check.outcome) ->
            Format.printf "swarm member %d (d=%d c=%d co=%d salt=%d): %a@." i
              d c co (i + 1) Harness.Model_check.pp_outcome o)
          swarm_members outs;
        let seen = Hashtbl.create 16 in
        let merged : Harness.Model_check.outcome =
          {
            runs = List.fold_left (fun a o -> a + o.Harness.Model_check.runs) 0 outs;
            steps =
              List.fold_left (fun a o -> a + o.Harness.Model_check.steps) 0 outs;
            violations =
              List.concat_map (fun o -> o.Harness.Model_check.violations) outs
              |> List.filter (fun v ->
                     if Hashtbl.mem seen v then false
                     else begin
                       Hashtbl.add seen v ();
                       true
                     end);
            step_cap_hits =
              List.fold_left
                (fun a o -> a + o.Harness.Model_check.step_cap_hits)
                0 outs;
            deadlocks =
              List.fold_left
                (fun a o -> a + o.Harness.Model_check.deadlocks)
                0 outs;
            truncated =
              List.exists (fun o -> o.Harness.Model_check.truncated) outs;
            distinct_states =
              List.fold_left
                (fun a o -> a + o.Harness.Model_check.distinct_states)
                0 outs;
            pruned_runs =
              List.fold_left
                (fun a o -> a + o.Harness.Model_check.pruned_runs)
                0 outs;
            pruned_branches =
              List.fold_left
                (fun a o -> a + o.Harness.Model_check.pruned_branches)
                0 outs;
            sleep_pruned =
              List.fold_left
                (fun a o -> a + o.Harness.Model_check.sleep_pruned)
                0 outs;
            (* Worst member: the merged coverage claim is only as strong
               as the fullest bit array. *)
            bitstate_occupancy =
              List.fold_left
                (fun a o ->
                  match (a, o.Harness.Model_check.bitstate_occupancy) with
                  | None, x | x, None -> x
                  | Some a, Some b -> Some (Float.max a b))
                None outs;
            collision_bound =
              List.fold_left
                (fun a o ->
                  match (a, o.Harness.Model_check.collision_bound) with
                  | None, x | x, None -> x
                  | Some a, Some b -> Some (Float.max a b))
                None outs;
            witness =
              List.fold_left
                (fun a o ->
                  match a with
                  | Some _ -> a
                  | None -> o.Harness.Model_check.witness)
                None outs;
          }
        in
        let members_json =
          List.map2
            (fun (i, d, c, co) o ->
              Sim.Json.Obj
                [
                  ("member", Sim.Json.Int i);
                  ("divergence_bound", Sim.Json.Int d);
                  ("crash_bound", Sim.Json.Int c);
                  ("crash_one_bound", Sim.Json.Int co);
                  ("salt", Sim.Json.Int (i + 1));
                  ("outcome", Harness.Report.outcome_json o);
                ])
            swarm_members outs
        in
        (merged, Some members_json)
      end
    in
    Format.printf "%a@." Harness.Model_check.pp_outcome o;
    let minimized =
      match (no_shrink, o.Harness.Model_check.witness) with
      | true, _ | _, None -> None
      | false, Some w ->
        let m = Harness.Shrink.minimize sc w in
        Option.iter (pp_minimized n) m;
        m
    in
    Option.iter
      (fun file ->
        let open Sim.Json in
        let config =
          [
            ("scenario", Str scenario);
            ("stack", Str stack);
            ( "model",
              Str (Format.asprintf "%a" Sim.Memory.pp_model model) );
            ("n", Int n);
            ("divergence_bound", Int dbound);
            ("crash_bound", Int cbound);
            ("crash_one_bound", Int cobound);
            ("passages", Int passages);
            ("max_runs", Int max_runs);
            ( "reduce",
              Str (Harness.Model_check.reduction_to_string reduction)
            );
            ( "vset",
              Str
                (if swarm > 0 || vset = `Bitstate then "bitstate"
                 else "exact") );
            ("vset_bits", Int vset_bits);
            ("swarm", Int swarm);
            ("check_csr", Bool (not no_csr));
          ]
        in
        let doc =
          Harness.Report.mc_outcome_json ~config ?swarm:swarm_json ~n
            ~minimized o
        in
        write_file file (to_string ~pretty:true doc ^ "\n"))
      out;
    let violated = o.Harness.Model_check.violations <> [] in
    if violated <> expect_violation then 1 else 0
  in
  Cmd.v
    (Cmd.info "model-check"
       ~doc:"Systematically explore schedules (and crash points).")
    Term.(
      const run $ scenario $ stack_arg $ model_arg $ n_arg $ dbound $ cbound
      $ cobound $ max_runs $ passages $ no_csr $ reduce $ vset $ vset_bits
      $ swarm $ out $ jobs_arg $ stop_on_first $ no_shrink $ expect_violation)

(* --- scenario: list / describe / run over the shared registry --- *)

let scenario_cmd =
  let name_pos =
    Arg.(
      required
      & pos 0 (some scenario_name_conv) None
      & info [] ~docv:"NAME" ~doc:"Registered scenario name.")
  in
  let list_cmd =
    let run () =
      List.iter
        (fun i ->
          Printf.printf "  %-12s %s%s\n" i.Harness.Scenario.i_name
            i.Harness.Scenario.i_summary
            (if i.Harness.Scenario.i_needs_stack then "  [--stack]" else ""))
        (Harness.Scenario.infos ());
      0
    in
    Cmd.v
      (Cmd.info "list" ~doc:"List every registered scenario.")
      Term.(const run $ const ())
  in
  let describe_cmd =
    let run name =
      let i = Option.get (Harness.Scenario.info name) in
      Printf.printf "%s: %s\n" i.Harness.Scenario.i_name
        i.Harness.Scenario.i_summary;
      Printf.printf "  takes a lock stack: %b\n" i.Harness.Scenario.i_needs_stack;
      Printf.printf
        "  run it:         rme scenario run %s%s\n"
        name
        (if i.Harness.Scenario.i_needs_stack then " --stack t3-mcs" else "");
      Printf.printf "  model-check it: rme model-check --scenario %s\n" name;
      0
    in
    Cmd.v
      (Cmd.info "describe" ~doc:"Describe one registered scenario.")
      Term.(const run $ name_pos)
  in
  let run_cmd =
    let crash_mean =
      Arg.(
        value & opt (some pos_int) None
        & info [ "crash-mean" ]
            ~doc:"Inject system-wide crashes with this mean interval in steps.")
    in
    let bursty =
      Arg.(value & flag & info [ "bursty" ] ~doc:"Crashes arrive in bursts.")
    in
    let lost_wakeup_mean =
      Arg.(
        value & opt nonneg_int 0
        & info [ "lost-wakeup-mean" ] ~docv:"MEAN"
            ~doc:
              "Suppress a random process's pending await (a lost wakeup) \
               with probability 1/$(docv) per decision (0 = never).")
    in
    let delay_mean =
      Arg.(
        value & opt nonneg_int 0
        & info [ "delay-mean" ] ~docv:"MEAN"
            ~doc:
              "Arm a delayed-visibility window on a random process's next \
               write with probability 1/$(docv) per decision (0 = never).")
    in
    let delay_window =
      Arg.(
        value & opt pos_int 8
        & info [ "delay-window" ] ~docv:"TICKS"
            ~doc:"Visibility window for --delay-mean faults, in clock ticks.")
    in
    let max_steps =
      Arg.(
        value & opt pos_int 2_000_000
        & info [ "max-steps" ] ~doc:"Hard step budget for the storm run.")
    in
    let epochs =
      Arg.(
        value & opt pos_int 1
        & info [ "epochs" ] ~doc:"Rounds for barrier-style scenarios.")
    in
    let no_csr =
      Arg.(
        value & flag
        & info [ "no-csr" ]
            ~doc:"Do not flag CSR violations (for stacks that lack CSR).")
    in
    let no_shrink =
      Arg.(
        value & flag
        & info [ "no-shrink" ]
            ~doc:"Do not minimize a violating storm trace.")
    in
    let expect_violation =
      Arg.(
        value & flag
        & info [ "expect-violation" ]
            ~doc:
              "Invert the exit code: succeed iff a violation IS found (for \
               known-negative gates like scenario-smoke).")
    in
    let out =
      Arg.(
        value
        & opt (some string) None
        & info [ "out"; "o" ] ~docv:"FILE"
            ~doc:
              "Write the storm outcome (trace, violations, minimized \
               schedule) as rme-mc-outcome/1 JSON to $(docv).")
    in
    let run name stack model n passages seed crash_mean bursty lost_wakeup_mean
        delay_mean delay_window max_steps epochs no_csr no_shrink
        expect_violation out =
      let t =
        build_scenario name ~stack ~n ~model ~passages ~no_csr
          ~crash_bound:(epochs - 1)
      in
      (* One seeded storm: the schedule supplies steps and crashes, the
         fault means supply lost wakeups / delayed writes; everything
         replays from the seed. *)
      let schedule =
        let base = Sim.Schedule.uniform ~seed in
        match crash_mean with
        | Some mean ->
          Sim.Schedule.with_random_crashes ~seed:(seed + 1) ~mean ~bursty base
        | None -> base
      in
      let r =
        Harness.Scenario.storm ~max_steps ~delay_window ~lost_wakeup_mean
          ~delay_mean ~seed ~schedule t
      in
      Printf.printf
        "storm: %d steps, %d crashes, %d independent crashes, %s\n"
        r.st_steps r.st_crashes r.st_crash_ones
        (if r.st_deadlock then "deadlocked"
         else if r.st_capped then "step-capped"
         else "all done");
      List.iter (Printf.printf "violation: %s\n") r.st_violations;
      let violated = r.st_violations <> [] in
      let minimized =
        if violated && not no_shrink then begin
          let m =
            Harness.Shrink.minimize ~max_steps ~delay_window
              (Harness.Scenario.to_scenario t)
              r.st_trace
          in
          Option.iter (pp_minimized n) m;
          m
        end
        else None
      in
      Option.iter
        (fun file ->
          let open Sim.Json in
          let config =
            [
              ("scenario", Str name);
              ("stack", Str stack);
              ("model", Str (Format.asprintf "%a" Sim.Memory.pp_model model));
              ("n", Int n);
              ("passages", Int passages);
              ("seed", Int seed);
              ( "crash_mean",
                match crash_mean with None -> Null | Some m -> Int m );
              ("lost_wakeup_mean", Int lost_wakeup_mean);
              ("delay_mean", Int delay_mean);
              ("delay_window", Int delay_window);
              ("max_steps", Int max_steps);
            ]
          in
          (* A storm is one run: its outcome in the search's terms. *)
          let outcome =
            {
              Harness.Model_check.runs = 1;
              steps = r.st_steps;
              violations = r.st_violations;
              step_cap_hits = (if r.st_capped then 1 else 0);
              deadlocks = (if r.st_deadlock then 1 else 0);
              truncated = false;
              distinct_states = 0;
              pruned_runs = 0;
              pruned_branches = 0;
              sleep_pruned = 0;
              bitstate_occupancy = None;
              collision_bound = None;
              witness = (if violated then Some r.st_trace else None);
            }
          in
          write_file file
            (to_string ~pretty:true
               (Harness.Report.mc_outcome_json ~config ~n ~minimized outcome)
            ^ "\n"))
        out;
      if violated <> expect_violation then 1 else 0
    in
    Cmd.v
      (Cmd.info "run"
         ~doc:
           "Run one seeded storm (crashes, lost wakeups, delayed-visibility \
            windows) over a registered scenario; violating traces are \
            minimized before reporting.")
      Term.(
        const run $ name_pos $ stack_arg $ model_arg $ n_arg $ passages_arg
        $ seed_arg $ crash_mean $ bursty $ lost_wakeup_mean $ delay_mean
        $ delay_window $ max_steps $ epochs $ no_csr $ no_shrink
        $ expect_violation $ out)
  in
  Cmd.group
    (Cmd.info "scenario"
       ~doc:
         "Work with the shared scenario registry: list, describe, or storm \
          any registered scenario.")
    [ list_cmd; describe_cmd; run_cmd ]

(* --- trace --- *)

let trace_cmd =
  let steps =
    Arg.(value & opt pos_int 120 & info [ "steps" ] ~doc:"Steps to simulate.")
  in
  let crash_every =
    Arg.(
      value & opt (some pos_int) None
      & info [ "crash-every" ] ~doc:"Inject a crash every K decisions.")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("jsonl", `Jsonl); ("chrome", `Chrome) ]) `Text
      & info [ "format"; "f" ] ~docv:"FORMAT"
          ~doc:
            "Output format: $(b,text) (human-readable dump), $(b,jsonl) \
             (one JSON object per event) or $(b,chrome) (trace-event JSON \
             loadable in Perfetto / chrome://tracing).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out"; "o" ] ~docv:"FILE"
          ~doc:"Write the trace to $(docv) instead of stdout.")
  in
  let run stack model n seed steps crash_every format out =
    let mem = Sim.Memory.create ~model ~n in
    let tr = Sim.Trace.create () in
    Sim.Trace.attach tr mem;
    let lock = Rme.Stack.recoverable mem stack in
    (* Phase marks are plain bookkeeping (no shared-memory operations), so
       the op stream — and hence the schedule — is identical to an
       unmarked run; they only add span structure to the exporters. *)
    let span ~pid phase f =
      Sim.Trace.phase_begin tr ~pid phase;
      f ();
      Sim.Trace.phase_end tr ~pid phase
    in
    let body ~pid ~epoch =
      while true do
        let span p f = span ~pid p f in
        span Sim.Trace.Ncs (fun () -> ());
        span Sim.Trace.Recover (fun () ->
            lock.Rme.Rme_intf.recover ~pid ~epoch);
        span Sim.Trace.Entry (fun () -> lock.Rme.Rme_intf.enter ~pid ~epoch);
        span Sim.Trace.Cs (fun () -> ());
        span Sim.Trace.Exit (fun () -> lock.Rme.Rme_intf.exit ~pid ~epoch)
      done
    in
    let rt = Sim.Runtime.create mem ~body in
    Sim.Runtime.on_crash rt (fun ~epoch -> Sim.Trace.record_crash tr ~epoch);
    Sim.Runtime.on_crash_one rt (fun ~pid -> Sim.Trace.record_crash_one tr ~pid);
    let base = Sim.Schedule.uniform ~seed in
    let schedule =
      match crash_every with
      | Some every -> Sim.Schedule.with_crashes ~every base
      | None -> base
    in
    Sim.Runtime.run ~max_steps:steps rt schedule;
    let contents =
      match format with
      | `Text ->
        let b = Buffer.create 4096 in
        let ppf = Format.formatter_of_buffer b in
        Sim.Trace.dump ppf tr;
        Format.pp_print_flush ppf ();
        Buffer.contents b
      | `Jsonl -> Sim.Trace.to_jsonl tr
      | `Chrome -> Sim.Trace.to_chrome tr ^ "\n"
    in
    (match out with
    | None -> print_string contents
    | Some file -> write_file file contents);
    0
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Dump a step-by-step shared-memory trace of a lock stack under a \
          seeded schedule (every operation, its result, whether it was \
          charged as an RMR, and passage-phase spans), as text, JSONL or \
          Chrome trace-event JSON.")
    Term.(
      const run $ stack_arg $ model_arg $ n_arg $ seed_arg $ steps
      $ crash_every $ format $ out)

(* --- native --- *)

let native_cmd =
  let crash_interval =
    Arg.(
      value & opt (some pos_float) None
      & info [ "crash-interval" ] ~doc:"Crash interval in milliseconds.")
  in
  let replicas =
    Arg.(
      value & opt pos_int 1
      & info [ "replicas" ] ~docv:"R"
          ~doc:
            "Run R replicas with crash-schedule seeds SEED..SEED+R-1 (on \
             the --jobs pool) and print each report in seed order.")
  in
  let sample_interval =
    Arg.(
      value
      & opt (some pos_float) None
      & info [ "sample-interval" ] ~docv:"MS"
          ~doc:
            "Arm the passive throughput sampler: record total passages \
             every $(docv) milliseconds (a passages/s time series across \
             crash storms, included in --metrics output).")
  in
  let run stack model n passages seed crash_interval jobs replicas
      sample_interval pin spin no_padding run_for metrics =
    if not (List.mem stack Rme_native.Stack.recoverable_names) then begin
      Printf.eprintf "unknown native stack %S; available: %s\n" stack
        (String.concat ", " Rme_native.Stack.recoverable_names);
      1
    end
    else begin
      let one seed =
        Rme_native.Workers.run
          ?crash_interval:(Option.map (fun ms -> ms /. 1000.) crash_interval)
          ?sample_interval:
            (Option.map (fun ms -> ms /. 1000.) sample_interval)
          ~spin ~pin ?run_for
          ~latency:(Option.is_some metrics)
          ~seed ~n ~passages
          ~make:(fun crash ~n ->
            Rme_native.Stack.recoverable ~model ~padded:(not no_padding)
              crash ~n stack)
          ()
      in
      let save r =
        Option.iter
          (fun file -> write_file file (Rme_native.Workers.metrics_json r))
          metrics
      in
      let finish r =
        Format.printf "%a@." Rme_native.Workers.pp_result r;
        match Rme_native.Workers.check_clean r with
        | Ok () ->
          print_endline "clean";
          0
        | Error e ->
          Printf.printf "NOT CLEAN: %s\n" e;
          1
      in
      if replicas <= 1 then begin
        let r = one seed in
        save r;
        finish r
      end
      else
        Parallel.Pool.with_pool ~jobs (fun pool ->
            let seeds = List.init replicas (fun i -> seed + i) in
            let reports = Parallel.Pool.map pool one seeds in
            save (List.hd reports);
            List.fold_left2
              (fun acc seed report ->
                Printf.printf "--- seed %d ---\n" seed;
                max acc (finish report))
              0 seeds reports)
    end
  in
  Cmd.v
    (Cmd.info "native"
       ~doc:
         "Stress a native (Atomic/Domain) stack with real concurrency. \
          Stacks come from the native registry (same names as the \
          simulated one; see $(b,rme list)); --model dsm exercises the \
          distributed-barrier machinery of Fig. 2.")
    Term.(
      const run $ stack_arg $ model_arg $ n_arg $ passages_arg $ seed_arg
      $ crash_interval $ jobs_arg $ replicas $ sample_interval $ pin_arg
      $ spin_arg $ no_padding_arg $ run_for_arg $ metrics_arg)

(* --- service: the sharded lock-service workload (DESIGN.md §5.17) --- *)

let service_cmd =
  let keys =
    Arg.(
      value & opt pos_int 100_000
      & info [ "keys" ] ~docv:"K"
          ~doc:"Logical lock keys in the table (locks materialize lazily).")
  in
  let shards =
    Arg.(
      value & opt pos_int 1024
      & info [ "shards" ] ~docv:"S"
          ~doc:"Physical RME locks the keys hash onto.")
  in
  let per_worker =
    Arg.(
      value & opt pos_int 10_000
      & info [ "per-worker" ] ~docv:"R"
          ~doc:"Requests each worker domain serves.")
  in
  let theta =
    Arg.(
      value
      & opt (unit_float ~lo_open:false ~hi_closed:false) 0.99
      & info [ "theta" ] ~docv:"THETA"
          ~doc:"Zipf skew of the key popularity in [0, 1); 0 is uniform.")
  in
  let rate =
    Arg.(
      value & opt nonneg_float 0.
      & info [ "rate" ] ~docv:"RPS"
          ~doc:
            "Open-loop arrival rate per worker, requests/second (0 = \
             saturating: the next request is admitted as soon as there is \
             room). Paced runs report arrival-to-completion latency, \
             saturating runs admit-to-completion.")
  in
  let think_ns =
    Arg.(
      value & opt nonneg_int 0
      & info [ "think-ns" ] ~docv:"NS"
          ~doc:"Fixed extra think time between a worker's arrivals.")
  in
  let batch =
    Arg.(
      value & opt pos_int 16
      & info [ "batch" ] ~docv:"B"
          ~doc:
            "Client batching capacity, 1..62: pending requests for the \
             same shard are served under one lock passage.")
  in
  let drill_after =
    Arg.(
      value
      & opt (some nonneg_float) None
      & info [ "drill-after" ] ~docv:"SECONDS"
          ~doc:
            "Arm the crash-recovery drill: that many seconds after all \
             workers are live, declare a system-wide crash (epoch bump) \
             and measure the time-to-drain of the recovery barrier \
             across the shards that were hot at the bump.")
  in
  let drill_timeout =
    Arg.(
      value & opt pos_float 30.
      & info [ "drill-timeout" ] ~docv:"SECONDS"
          ~doc:"Give up waiting for the drill to drain after this long.")
  in
  let traffic_budget =
    Arg.(
      value
      & opt (some pos_int) None
      & info [ "traffic-budget" ] ~docv:"R"
          ~doc:
            "Generate streams of $(docv) requests per worker (>= \
             --per-worker) and serve only the prefix — a shrunk run \
             replays a prefix of the full workload, so deterministic \
             cells match across budgets.")
  in
  let alloc_probe =
    Arg.(
      value & flag
      & info [ "alloc-probe" ]
          ~doc:
            "Measure worker 1's minor allocation per steady-tail served \
             request (arm on drill-free runs; the lock passage path is \
             gated allocation-free).")
  in
  let run stack model n seed keys shards per_worker theta rate think_ns batch
      drill_after drill_timeout traffic_budget alloc_probe pin spin no_padding
      run_for metrics =
    if not (List.mem stack Rme_native.Stack.recoverable_names) then begin
      Printf.eprintf "unknown native stack %S; available: %s\n" stack
        (String.concat ", " Rme_native.Stack.recoverable_names);
      1
    end
    else
      match
        Rme_service.Loadgen.run ~stack ~model ~padded:(not no_padding) ~shards
          ~theta ~rate_rps:rate ~think_ns ~batch ~spin ~pin ~alloc_probe
          ?run_for ?drill_after ~drill_timeout ?traffic_budget ~seed ~n ~keys
          ~per_worker ()
      with
      | exception Invalid_argument m ->
        Printf.eprintf "service: %s\n" m;
        1
      | r -> (
        Format.printf "%a@." Rme_service.Loadgen.pp_result r;
        Option.iter
          (fun file -> write_file file (Rme_service.Loadgen.metrics_json r))
          metrics;
        match Rme_service.Loadgen.check_clean r with
        | Ok () ->
          print_endline "clean";
          0
        | Error e ->
          Printf.printf "NOT CLEAN: %s\n" e;
          1)
  in
  Cmd.v
    (Cmd.info "service"
       ~doc:
         "Run the sharded lock-service workload: a table of up to millions \
          of logical RME locks served by batching clients over worker \
          domains under seeded Zipf traffic, with per-shard latency \
          metrics (--metrics) and an optional crash-recovery drill \
          (--drill-after).")
    Term.(
      const run $ stack_arg $ model_arg $ n_arg $ seed_arg $ keys $ shards
      $ per_worker $ theta $ rate $ think_ns $ batch $ drill_after
      $ drill_timeout $ traffic_budget $ alloc_probe $ pin_arg $ spin_arg
      $ no_padding_arg $ run_for_arg $ metrics_arg)

let () =
  let doc =
    "Recoverable mutual exclusion under system-wide failures (PODC 2018) — \
     simulator, model checker and native stress harness."
  in
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "rme" ~version:"1.0.0" ~doc)
          [ list_cmd; run_cmd; model_check_cmd; scenario_cmd; trace_cmd;
            native_cmd; service_cmd ]))
