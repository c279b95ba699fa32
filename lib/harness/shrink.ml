(* Delta-debugging minimizer over schedule interventions. A violating
   trace is first reduced to its interventions — the positions where it
   deviates from the default run-until-blocked policy (preemptions,
   crashes, fault armings); the defaults between them are reproduced by
   the policy itself and carry no information. ddmin then searches for a
   1-minimal subset that still violates, followed by a single-removal
   sweep as a belt-and-braces check. Probes replay via
   Model_check.run_schedule_in on one world, reset in place before each
   probe; its sanitization keeps every subset executable, so the whole
   process is deterministic: same scenario +
   same trace -> same minimized schedule, on any machine. It runs on the
   calling domain; [--jobs] only fans out swarm members and replicas. *)

type result = {
  s_trace : int array;  (* minimized full decision sequence *)
  s_interventions : (int * int) list;  (* its deviations from default *)
  s_violations : string list;  (* violations the minimized trace yields *)
  s_steps : int;
  s_probes : int;  (* replays performed while shrinking *)
}

let decide_of_interventions interventions =
  let tbl = Hashtbl.create (List.length interventions * 2) in
  List.iter (fun (pos, d) -> Hashtbl.replace tbl pos d) interventions;
  fun ~pos ~enabled:_ ~default ->
    match Hashtbl.find_opt tbl pos with Some d -> d | None -> default

let minimize ?(max_steps = 20_000) ?(delay_window = 8) scenario trace =
  (* One world for every probe: each replay resets it in place. *)
  let world = Model_check.world scenario in
  let probes = ref 0 in
  let probe interventions =
    incr probes;
    Model_check.run_schedule_in ~max_steps ~delay_window
      ~decide:(decide_of_interventions interventions)
      world
  in
  let violates (r : Model_check.replay_report) = r.rp_violations <> [] in
  (* Confirm the trace reproduces a violation when replayed as a forced
     schedule, and extract its interventions. *)
  let len = Array.length trace in
  let confirm =
    incr probes;
    Model_check.run_schedule_in ~max_steps ~delay_window
      ~decide:(fun ~pos ~enabled:_ ~default ->
        if pos < len then trace.(pos) else default)
      world
  in
  if not (violates confirm) then None
  else begin
    (* Interventions after the first violation cannot have caused it;
       drop them before ddmin ever probes. (Finish-hook violations have
       first_violation_pos = rp_steps, which keeps everything.) *)
    let cutoff =
      match confirm.rp_first_violation_pos with
      | Some p -> p
      | None -> confirm.rp_steps
    in
    let initial =
      List.filter (fun (pos, _) -> pos <= cutoff) confirm.rp_interventions
    in
    (* ddmin (Zeller & Hildebrandt): try chunks and complements at
       growing granularity until the set is 1-minimal. *)
    let chunks parts l =
      let n = List.length l in
      let base = n / parts and extra = n mod parts in
      let rec take k l acc =
        if k = 0 then (List.rev acc, l)
        else
          match l with
          | [] -> (List.rev acc, [])
          | x :: tl -> take (k - 1) tl (x :: acc)
      in
      let rec go i l acc =
        if i >= parts then List.rev acc
        else
          let size = base + if i < extra then 1 else 0 in
          let c, rest = take size l [] in
          go (i + 1) rest (c :: acc)
      in
      go 0 l []
    in
    let rec ddmin interventions parts =
      let n = List.length interventions in
      if n <= 1 then interventions
      else begin
        let cs = chunks parts interventions in
        (* Reduce to a single chunk if one still violates... *)
        match List.find_opt (fun c -> c <> [] && violates (probe c)) cs with
        | Some c -> ddmin c 2
        | None -> (
          (* ... else to a complement ... *)
          let complements =
            if parts <= 2 then [] (* complements = chunks when parts = 2 *)
            else
              List.mapi
                (fun i _ ->
                  List.concat
                    (List.filteri (fun j _ -> j <> i) cs))
                cs
          in
          match
            List.find_opt
              (fun c -> List.length c < n && violates (probe c))
              complements
          with
          | Some c -> ddmin c (max 2 (parts - 1))
          | None ->
            (* ... else refine granularity until singleton chunks. *)
            if parts < n then ddmin interventions (min n (2 * parts))
            else interventions)
      end
    in
    let minimal = ddmin initial 2 in
    (* Single-removal sweep to a fixpoint: certifies 1-minimality even
       on the paths where ddmin returns early. *)
    let rec sweep interventions =
      let removed = ref false in
      let kept =
        List.filteri
          (fun i _ ->
            if !removed then true (* one removal per pass keeps it simple *)
            else
              let without = List.filteri (fun j _ -> j <> i) interventions in
              if violates (probe without) then begin
                removed := true;
                false
              end
              else true)
          interventions
      in
      if !removed then sweep kept else interventions
    in
    let minimal = sweep minimal in
    let final = probe minimal in
    assert (violates final);
    Some
      {
        s_trace = final.rp_trace;
        s_interventions = final.rp_interventions;
        s_violations = final.rp_violations;
        s_steps = final.rp_steps;
        s_probes = !probes;
      }
  end
