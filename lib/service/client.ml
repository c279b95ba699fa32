(* Per-domain batching client.

   A worker domain submits requests (key + caller tag) into a small
   preallocated buffer; [flush] serves them in shard groups, one lock
   passage per distinct shard, calling [serve] once per request inside
   the critical section and reporting each completion to the [on_served]
   callback (also inside the CS, so a crash can never lose a completion
   that was counted nor count one that was lost).

   Grouping is the O(cap²) scan with a served-bitmask — for the small
   per-domain batch windows this targets (cap <= 62, so the mask fits one
   immediate int) that beats any allocating index structure, and the
   whole flush path allocates nothing: batching bookkeeping stays off the
   lock passage itself.

   Crash semantics: a flush unwinds with {!Rme_native.Crash.Crashed} from
   inside a lock operation (or from the explicit in-CS poll that gives
   the drill holders to crash). Requests already reported via [on_served]
   are complete; the rest are still unserved and the harness re-submits
   them after [clear] — the bitmask is passage-local state that the crash
   legitimately destroys. *)

module Crash = Rme_native.Crash

type t = {
  table : Table.t;
  pid : int;
  cap : int;
  nshards : int;
  keys : int array;
  tags : int array;
  shard : int array;
  mutable len : int;
  on_served : tag:int -> shard:int -> unit;
  (* machine-dependent batching stats; never baseline-gated *)
  mutable batches : int;
  mutable served : int;
  mutable max_batch : int;
}

let create table ~pid ~cap ~on_served =
  if cap < 1 || cap > 62 then
    invalid_arg "Client.create: cap must be in [1, 62]";
  {
    table;
    pid;
    cap;
    nshards = Table.shards table;
    keys = Array.make cap 0;
    tags = Array.make cap 0;
    shard = Array.make cap 0;
    len = 0;
    on_served;
    batches = 0;
    served = 0;
    max_batch = 0;
  }

let pending t = t.len
let room t = t.len < t.cap
let clear t = t.len <- 0
let batches t = t.batches
let served t = t.served
let max_batch t = t.max_batch

let submit t ~key ~tag =
  if t.len >= t.cap then invalid_arg "Client.submit: batch full";
  t.keys.(t.len) <- key;
  t.tags.(t.len) <- tag;
  t.shard.(t.len) <- Table.shard_of_key ~shards:t.nshards key;
  t.len <- t.len + 1

let flush t ~epoch =
  let crash = Table.crash_handle t.table in
  let mask = ref 0 in
  for i = 0 to t.len - 1 do
    if !mask land (1 lsl i) = 0 then begin
      let s = t.shard.(i) in
      Table.acquire t.table ~pid:t.pid ~epoch ~shard:s;
      let b = ref 0 in
      for j = i to t.len - 1 do
        if !mask land (1 lsl j) = 0 && t.shard.(j) = s then begin
          Table.serve t.table ~shard:s;
          mask := !mask lor (1 lsl j);
          incr b;
          t.on_served ~tag:t.tags.(j) ~shard:s
        end
      done;
      (* In-CS poll point: lets the drill crash a holder (the analogue of
         the poll inside Workers' CS), after this batch's serves are
         accounted. *)
      Crash.check crash;
      Table.release t.table ~pid:t.pid ~epoch ~shard:s;
      t.batches <- t.batches + 1;
      t.served <- t.served + !b;
      if !b > t.max_batch then t.max_batch <- !b
    end
  done;
  t.len <- 0
