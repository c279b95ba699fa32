(* Correctness gates and failure accounting. Every untraced and traced
   run passes each result it measures through one of these; a wrong
   result is counted as failed operations against those attempted, never
   raised — so one bad repeat shows in the result line instead of
   killing the run. *)

module Loadgen = Rme_service.Loadgen
module MC = Harness.Model_check

type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;  (** why operations failed, newest first *)
}

let tally () = { attempted = 0; failed = 0; notes = [] }

let fail t ~count note =
  t.failed <- t.failed + count;
  t.notes <- note :: t.notes

(* Service: each issued request is one attempted operation; it fails
   unless it was served exactly once by a clean table. An unclean table
   (mutual-exclusion violation, lost update) fails every request of the
   run, since none of them can be trusted. *)
let service t ~expected (r : Loadgen.result) =
  let attempted = max expected (Array.fold_left ( + ) 0 r.Loadgen.issued) in
  t.attempted <- t.attempted + attempted;
  match Loadgen.check_clean r with
  | Error e -> fail t ~count:attempted ("service table not clean: " ^ e)
  | Ok () ->
    let missed = ref (max 0 (expected - Loadgen.total_served r)) in
    Array.iteri
      (fun s issued ->
        missed :=
          !missed
          + abs (issued - r.Loadgen.shard_served.(s))
          + abs (r.Loadgen.shard_served.(s) - r.Loadgen.table_completions.(s)))
      r.Loadgen.issued;
    let missed = min attempted !missed in
    if missed > 0 || not (Loadgen.served_exactly r) then
      fail t ~count:(max 1 missed)
        (Printf.sprintf "%d of %d requests not served exactly once" missed
           attempted)

(* Model checker: one search is one attempted operation. It fails on any
   violation, deadlock, step-cap hit or truncation, and — where the
   workload pins them — on runs/steps other than [expect]. *)
let search t ?expect (o : MC.outcome) =
  t.attempted <- t.attempted + 1;
  let problems =
    List.concat
      [
        List.map (fun v -> "violation: " ^ v) o.MC.violations;
        (if o.MC.deadlocks > 0 then [ Printf.sprintf "%d deadlocks" o.MC.deadlocks ]
         else []);
        (if o.MC.step_cap_hits > 0 then
           [ Printf.sprintf "%d step-cap hits" o.MC.step_cap_hits ]
         else []);
        (if o.MC.truncated then [ "search truncated" ] else []);
        (match expect with
        | Some (runs, steps) when (o.MC.runs, o.MC.steps) <> (runs, steps) ->
          [
            Printf.sprintf "runs/steps %d/%d, expected %d/%d" o.MC.runs
              o.MC.steps runs steps;
          ]
        | _ -> []);
      ]
  in
  if problems <> [] then fail t ~count:1 (String.concat "; " problems)
