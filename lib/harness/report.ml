type captured = { title : string; header : string list; rows : string list list }

(* Tables, metrics and gates land here as a side effect of [table] /
   [metric] / [gate]; the bench harness drains them into BENCH_E<k>.json
   after each experiment. Only the main domain prints tables and records
   metrics and gates (cells are computed on the pool, rendering is not),
   so no locking is needed. *)
let captured_tables : captured list ref = ref []
let metric_capture : (string * Sim.Json.t) list ref = ref []

type bound = At_least of float | At_most of float
type agg = Max | Median | All

type verdict = {
  name : string;
  threshold : string;
  agg : agg;
  observed : float;
  pass : bool;
  deciding : (string * float) list;
}

let gate_capture : (unit -> verdict) list ref = ref []

let reset_captured () =
  captured_tables := [];
  metric_capture := [];
  gate_capture := []

let captured () = List.rev !captured_tables

let metric ~name json = metric_capture := (name, json) :: !metric_capture
let captured_metrics () = List.rev !metric_capture

(* Column width must count what the terminal renders, not bytes: a
   byte-level String.length over-counts every multi-byte UTF-8 scalar
   (e.g. the Θ in "Θ(log N)") and mis-pads the column. Counting Unicode
   scalar values (every byte that is not a continuation byte) is exact
   for the symbols our tables use. *)
let display_width s =
  let w = ref 0 in
  String.iter (fun c -> if Char.code c land 0xC0 <> 0x80 then incr w) s;
  !w

let render ~header rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width c =
    List.fold_left
      (fun acc row ->
        match List.nth_opt row c with
        | Some s -> max acc (display_width s)
        | None -> acc)
      0 all
  in
  let widths = List.init cols width in
  let render_row row =
    let cells =
      List.mapi
        (fun c w ->
          let s = match List.nth_opt row c with Some s -> s | None -> "" in
          s ^ String.make (max 0 (w - display_width s)) ' ')
        widths
    in
    "| " ^ String.concat " | " cells ^ " |"
  in
  let rule =
    "|" ^ String.concat "|" (List.map (fun w -> String.make (w + 2) '-') widths)
    ^ "|"
  in
  render_row header :: rule :: List.map render_row rows

(* [~capture:false] prints a table without recording it in the bench
   JSON: for machine-dependent columns (absolute throughputs, ratios)
   that belong in the run log but must not enter the baseline gate —
   the gate compares captured tables cell by cell, and a cell that
   varies across machines would make the committed baseline unusable.
   Such numbers go to [metric] instead, which is never compared. *)
let table ?(capture = true) ~title ~header rows =
  if capture then captured_tables := { title; header; rows } :: !captured_tables;
  print_newline ();
  Printf.printf "### %s\n\n" title;
  List.iter print_endline (render ~header rows);
  print_newline ()

(* Side-by-side ablation rendering: one row per configuration, a value
   column per variant, and a trailing base-vs-variant ratio column. The
   numbers are machine-dependent by nature, so the table is never
   captured — callers gate on the ratios and put the exact values in
   [metric]s. *)
let ablation_table ~title ~label_header ~base_header ~variant_header ~fmt rows =
  let header =
    [ label_header; base_header; variant_header; "ratio (variant/base)" ]
  in
  let rows =
    List.map
      (fun (label, base, variant) ->
        [
          label;
          fmt base;
          fmt variant;
          (if base > 0. then Printf.sprintf "%.2fx" (variant /. base)
           else "n/a");
        ])
      rows
  in
  table ~capture:false ~title ~header rows

(* --- gates --- *)

let agg_name = function Max -> "max" | Median -> "median" | All -> "all"

(* Deciding rows as documented in the interface; the observed value is
   the worst of them. A gate with no rows proves nothing, so it fails. *)
let judge_gate ~name ?(agg = All) bound rows =
  let within v = match bound with At_least b -> v >= b | At_most b -> v <= b in
  (* How far past the bound a value lies; NaN is the worst possible row. *)
  let shortfall v =
    if Float.is_nan v then Float.infinity
    else match bound with At_least b -> b -. v | At_most b -> v -. b
  in
  let sort key rows =
    List.stable_sort (fun (_, a) (_, b) -> Float.compare (key a) (key b)) rows
  in
  let worst_first = sort (fun v -> -.shortfall v) in
  let nth_sorted i = [ List.nth (sort Fun.id rows) (i (List.length rows)) ] in
  let deciding =
    match (agg, List.filter (fun (_, v) -> not (within v)) rows) with
    | _ when rows = [] -> []
    | Max, _ -> nth_sorted (fun n -> n - 1)
    | Median, _ -> nth_sorted (fun n -> n / 2)
    | All, [] -> [ List.hd (worst_first rows) ]
    | All, failing -> failing
  in
  let observed =
    match worst_first deciding with [] -> Float.nan | (_, v) :: _ -> v
  in
  let op, b =
    match bound with At_least b -> (">=", b) | At_most b -> ("<=", b)
  in
  {
    name;
    threshold = Printf.sprintf "%s %s %g" (agg_name agg) op b;
    agg;
    observed;
    pass = deciding <> [] && within observed;
    deciding;
  }

let gate ~name ?agg bound rows =
  gate_capture := (fun () -> judge_gate ~name ?agg bound rows) :: !gate_capture

let verdict_text v = if v.pass then "pass" else "fail"

(* The one gate runner: every gate the experiment recorded, judged, in
   one deterministic table (the deciding rows go to the JSON). *)
let run_gates ~title () =
  let verdicts = List.rev_map (fun judge -> judge ()) !gate_capture in
  if verdicts <> [] then
    table ~title ~header:[ "gate"; "threshold"; "verdict" ]
      (List.map (fun v -> [ v.name; v.threshold; verdict_text v ]) verdicts);
  verdicts

let gates_json verdicts =
  let open Sim.Json in
  let finite x = if Float.is_finite x then Float x else Null in
  let row (r, x) = Obj [ ("row", Str r); ("value", finite x) ] in
  List
    (List.map
       (fun v ->
         Obj
           [
             ("name", Str v.name);
             ("threshold", Str v.threshold);
             ("agg", Str (agg_name v.agg));
             ("observed", finite v.observed);
             ("verdict", Str (verdict_text v));
             ("deciding", List (List.map row v.deciding));
           ])
       verdicts)

(* --- numeric-cell comparison for the baseline gate --- *)

(* Accept the harness's "12345+" truncation marker. *)
let number_of_cell s =
  let s =
    if String.length s > 0 && s.[String.length s - 1] = '+' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  float_of_string_opt s

(* Relative agreement for nonzero baselines: |fresh - base| within
   [tolerance] of the larger magnitude (floored at 1 so near-zero pairs
   compare absolutely). A baseline of exactly 0 degenerates under that
   rule — the scale becomes |fresh| itself, so any fresh value beyond the
   floor fails *regardless* of tolerance; a zero baseline therefore
   switches to an absolute check: the fresh value must stay within
   [tolerance] of 0. (A zero-baseline cell is a count of something that
   never happened; if it starts happening, tolerance should not hide it.) *)
let cell_within_tolerance ~tolerance ~base ~fresh =
  if base = 0. then abs_float fresh <= tolerance
  else
    let scale =
      Float.max (Float.max (abs_float fresh) (abs_float base)) 1.
    in
    abs_float (fresh -. base) <= tolerance *. scale

(* --- the artifact schemas --- *)

let bench =
  let open Sim.Json.Schema in
  let value = nullable (num ()) in
  doc "rme-bench/1"
    [
      req "experiment" str;
      req "jobs" (int ~min:1 ());
      req "wall_clock_s" (num ~min:0. ());
      req "tables"
        (list
           (obj
              [
                req "title" str;
                req "header" (list str);
                req "rows" (list (list str));
              ]));
      req "metrics" (obj []);
      req "gates"
        (list
           (obj
              [
                req "name" str;
                req "threshold" str;
                req "agg" (enum [ "max"; "median"; "all" ]);
                req "observed" value;
                req "verdict" (enum [ "pass"; "fail" ]);
                req "deciding" (list (obj [ req "row" str; req "value" value ]));
              ]));
    ]

(* One outcome object — the top-level one or a swarm member's. The
   sleep/bitstate members are optional (older files predate them); a
   bitstate float that is present must be finite, since NaN/inf means
   the producer leaked a sentinel. *)
let outcome =
  let open Sim.Json.Schema in
  let count = int () in
  obj
    (List.map
       (fun k -> req k count)
       [
         "runs"; "steps"; "step_cap_hits"; "deadlocks"; "distinct_states";
         "pruned_runs"; "pruned_branches";
       ]
    @ [
        req "truncated" bool;
        req "violations" (list str);
        opt "witness" (nullable (list count));
        opt "sleep_pruned" count;
        opt "bitstate_occupancy" (nullable (num ()));
        opt "collision_bound" (nullable (num ()));
      ])

(* A swarm search records each diversified member next to the merged
   top-level outcome. The minimized schedule is Null when the search was
   clean (or shrinking was disabled); otherwise its trace must replay the
   violation, so the decision array and the interventions it was reduced
   to are both required. *)
let mc_outcome =
  let open Sim.Json.Schema in
  let count = int () in
  doc "rme-mc-outcome/1"
    [
      req "config" (obj []);
      req "outcome" outcome;
      opt "swarm"
        (list
           (obj
              (List.map
                 (fun k -> req k count)
                 [
                   "member"; "divergence_bound"; "crash_bound";
                   "crash_one_bound"; "salt";
                 ]
              @ [ req "outcome" outcome ])));
      req "minimized_schedule"
        (nullable
           (obj
              [
                req "trace" (list count);
                req "violations" (list str);
                req "steps" count;
                req "probes" count;
                req "interventions"
                  (list
                     (obj
                        [
                          req "pos" count;
                          req "decision" count;
                          req "meaning" str;
                        ]));
              ]));
    ]
