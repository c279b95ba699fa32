(* Statistics over raw samples. Every percentile the benchmark reports is
   computed here from the samples its own spans recorded — never from
   [Sim.Stats] buckets, which are up to 12.5% wide and made identical
   runs read 3839, 4095 or 4607 ns at the same p50. *)

type summary = {
  count : int;
  p50 : float;
  tail : float;  (** value at [tail_pct] *)
  tail_pct : float;
      (** the highest of 99.9, 99, 95, 90 and 75 with at least ten
          samples beyond it; 50 when there are fewer than twenty samples,
          0 when there are none *)
}

let empty = { count = 0; p50 = 0.; tail = 0.; tail_pct = 0. }

(* Linear interpolation between closest ranks of an ascending array;
   [None] on an empty one. *)
let percentile_sorted a p =
  let n = Array.length a in
  if n = 0 then None
  else if n = 1 then Some a.(0)
  else begin
    let r = Float.min 1. (Float.max 0. (p /. 100.)) *. float_of_int (n - 1) in
    let lo = truncate r in
    let hi = min (n - 1) (lo + 1) in
    let f = r -. float_of_int lo in
    Some (a.(lo) +. (f *. (a.(hi) -. a.(lo))))
  end

let sorted_copy a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

let percentile a p = percentile_sorted (sorted_copy a) p

let median a = percentile a 50.

let median_or_zero a = Option.value (median a) ~default:0.

(* Candidate tail levels in per-mille, so "ten samples beyond" is an
   exact integer test. *)
let tail_levels = [ 999; 990; 950; 900; 750 ]

(* The highest level that leaves at least ten samples above it, in %. *)
let tail_level count =
  match List.find_opt (fun l -> count * (1000 - l) >= 10_000) tail_levels with
  | Some l -> float_of_int l /. 10.
  | None -> 50.

let summarize a =
  let s = sorted_copy a in
  match percentile_sorted s 50. with
  | None -> empty
  | Some p50 ->
    let count = Array.length s in
    let tail_pct = tail_level count in
    let tail = Option.get (percentile_sorted s tail_pct) in
    { count; p50; tail; tail_pct }

(* The four metrics a span reports (see [Catalog.span]). *)
let span_metrics name s =
  [
    (name ^ ".p50", s.p50);
    (name ^ ".tail", s.tail);
    (name ^ ".tail_pct", s.tail_pct);
    (name ^ ".count", float_of_int s.count);
  ]

(* [num / den], 0 when the base is 0 — a layer the workload never ran
   reads 0 rather than a non-finite value. *)
let ratio num den = if den = 0. then 0. else num /. den

let ratio_int num den = ratio (float_of_int num) (float_of_int den)

(* Raw-sample recorder with a fixed capacity, allocated before the timed
   region; [add] past the capacity is dropped and counted. *)
type recorder = { buf : int array; mutable len : int; mutable dropped : int }

let recorder cap = { buf = Array.make (max 1 cap) 0; len = 0; dropped = 0 }

let add r v =
  if r.len < Array.length r.buf then begin
    Array.unsafe_set r.buf r.len v;
    r.len <- r.len + 1
  end
  else r.dropped <- r.dropped + 1

let samples ?(scale = 1.) rs =
  Array.concat
    (List.map
       (fun r -> Array.init r.len (fun i -> float_of_int r.buf.(i) *. scale))
       rs)

let sum r =
  let s = ref 0 in
  for i = 0 to r.len - 1 do
    s := !s + r.buf.(i)
  done;
  !s
