(* Online summary statistics plus a log-bucketed histogram, so the
   harness can report distribution shape (p50/p90/p99) and not just
   mean/max. Samples are non-negative by construction here (RMR counts,
   step counts); negative inputs are clamped into bucket 0 but still
   tracked exactly by min/max/mean, and NaN is treated as 0 throughout —
   a NaN that only entered the bucket clamp would otherwise leave
   min/max stuck at their ±infinity sentinels with a nonzero count,
   resurrecting exactly the leak the count-0 guards below fixed.

   Bucket layout (HDR-histogram style): values 0..63 get exact buckets;
   above that, each power of two is split into 8 sub-buckets, so the
   relative quantization error of a percentile is < 12.5% while the whole
   histogram is one flat 520-slot int array. *)

let linear = 64 (* exact buckets for 0..linear-1 *)
let sub_bits = 3
let sub = 1 lsl sub_bits
let top_msb = 62 (* OCaml int width upper bound *)
let nbuckets = linear + ((top_msb - sub_bits - 3 + 1) * sub)

type t = {
  mutable count : int;
  mutable sum : float;
  mutable max_v : float;
  mutable min_v : float;
  buckets : int array;
}

let create () =
  {
    count = 0;
    sum = 0.;
    max_v = neg_infinity;
    min_v = infinity;
    buckets = Array.make nbuckets 0;
  }

let msb x =
  let rec go i x = if x <= 1 then i else go (i + 1) (x lsr 1) in
  go 0 x

let bucket_of v =
  let x = if Float.is_nan v || v < 1. then 0 else int_of_float v in
  if x < linear then x
  else
    let m = msb x in
    let s = (x lsr (m - sub_bits)) land (sub - 1) in
    linear + ((m - (sub_bits + 3)) * sub) + s

(* Inclusive value range covered by bucket [i]. *)
let bucket_lo i =
  if i < linear then i
  else
    let m = sub_bits + 3 + ((i - linear) / sub)
    and s = (i - linear) mod sub in
    (1 lsl m) + (s lsl (m - sub_bits))

let bucket_hi i =
  if i < linear then i
  else
    let m = sub_bits + 3 + ((i - linear) / sub) in
    bucket_lo i + (1 lsl (m - sub_bits)) - 1

let add t x =
  let x = if Float.is_nan x then 0. else x in
  t.count <- t.count + 1;
  t.sum <- t.sum +. x;
  if x > t.max_v then t.max_v <- x;
  if x < t.min_v then t.min_v <- x;
  let b = bucket_of x in
  t.buckets.(b) <- t.buckets.(b) + 1

let add_int t x = add t (float_of_int x)

let count t = t.count
let mean t = if t.count = 0 then 0. else t.sum /. float_of_int t.count

(* The empty-accumulator sentinels (neg_infinity / infinity) must never
   escape: they used to leak into pp output, table cells and JSON (where
   -inf is not even a valid number). Guard exactly the way [max_int]
   always did. *)
let max t = if t.count = 0 then 0. else t.max_v
let min t = if t.count = 0 then 0. else t.min_v
let max_int t = if t.count = 0 then 0 else int_of_float t.max_v

let percentile t p =
  if t.count = 0 then 0.
  else begin
    let p = Float.max 0. (Float.min 100. p) in
    let rank =
      Stdlib.max 1 (int_of_float (Float.ceil (p /. 100. *. float_of_int t.count)))
    in
    let rec find i cum =
      if i >= nbuckets then t.max_v
      else
        let cum = cum + t.buckets.(i) in
        if cum >= rank then float_of_int (bucket_hi i) else find (i + 1) cum
    in
    let rep = find 0 0 in
    (* Clamp the bucket's upper bound into the observed range, so p100 is
       the exact max and quantization never exceeds it. *)
    Float.max t.min_v (Float.min t.max_v rep)
  end

let merge a b =
  let t =
    {
      count = a.count + b.count;
      sum = a.sum +. b.sum;
      max_v = Float.max a.max_v b.max_v;
      min_v = Float.min a.min_v b.min_v;
      buckets = Array.make nbuckets 0;
    }
  in
  Array.iteri (fun i c -> t.buckets.(i) <- c + b.buckets.(i)) a.buckets;
  t

let to_json t =
  let buckets =
    Array.to_seq t.buckets
    |> Seq.mapi (fun i c -> (i, c))
    |> Seq.filter (fun (_, c) -> c > 0)
    |> Seq.map (fun (i, c) ->
           Json.List [ Json.Int (bucket_lo i); Json.Int (bucket_hi i); Json.Int c ])
    |> List.of_seq
  in
  Json.Obj
    [
      ("count", Json.Int t.count);
      ("mean", Json.Float (mean t));
      ("min", Json.Float (min t));
      ("max", Json.Float (max t));
      ("p50", Json.Float (percentile t 50.));
      ("p90", Json.Float (percentile t 90.));
      ("p99", Json.Float (percentile t 99.));
      ("buckets", Json.List buckets);
    ]

let json_schema =
  let open Json.Schema in
  let nat = int ~min:0 () and value = num () in
  obj
    [
      req "count" nat;
      req "mean" value;
      req "min" value;
      req "max" value;
      req "p50" value;
      req "p90" value;
      req "p99" value;
      req "buckets" (list (tuple [ nat; nat; nat ]));
    ]

let pp ppf t =
  if t.count = 0 then Format.fprintf ppf "n=0"
  else
    Format.fprintf ppf "n=%d mean=%.2f p50=%.0f p99=%.0f max=%.0f" (count t)
      (mean t) (percentile t 50.) (percentile t 99.) (max t)
