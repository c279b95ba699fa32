(* Sharded visited set: open-addressing hash map from a state
   fingerprint to a small coverage bitmask (the model checker stores the
   domination closure of the budget vectors that have reached the
   state). The key space splits across a fixed [nshards] shards, each
   behind its own mutex, so concurrent [covers_or_add] calls are safe;
   within a shard, linear probing over a power-of-two table keeps the hot
   path allocation-free, and a table doubles one shard at a time.

   Two representations behind one [t]:

   - [Exact]: the historical map — keys stored verbatim, coverage masks
     honoured. Verdict-authoritative.
   - [Bitstate]: a fixed-size double-hashed bit array (Holzmann's
     supertrace). Each key sets/tests two probe bits derived from two
     independent remixes; a state counts as covered iff both bits were
     already set. No keys, no masks, no growth: the memory bound is
     chosen up front ([~bits]), which is the point — searches whose
     exact set no longer fits still run, trading a measurable
     false-covered probability (reported via [stats]) for bounded
     memory. A false "covered" can only prune exploration — the same
     failure direction as a fingerprint collision — never fabricate a
     state or a violation. Callers must fold any budget qualification
     into the key itself: [~bit]/[~closure] are ignored (there is no
     per-key mask to put them in). *)

type shard = {
  lock : Mutex.t;
  mutable keys : int array; (* 0 = empty slot *)
  mutable masks : int array;
  mutable count : int;
}

type exact = { shards : shard array; shard_mask : int }

type bitshard = {
  block : Mutex.t;
  words : int array; (* bit array, 32 bits per word *)
  mutable inserts : int; (* keys first seen here (not both bits set) *)
  mutable set_bits : int;
}

type bitstate = {
  bshards : bitshard array;
  bshard_mask : int;
  bit_mask : int; (* bits per shard - 1; power of two *)
  salt : int; (* pre-remixed; diversifies swarm members *)
  total_bits : int;
}

type t = Exact of exact | Bitstate of bitstate

(* Fingerprints are arbitrary ints; remix before deriving shard and slot
   indices so low-entropy keys still spread. Constants as in
   Sim.Encode.mix (duplicated: parallel must not depend on sim). *)
let remix v =
  let h = v * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x27D4EB2F165667C5 in
  h lxor (h lsr 32)

let min_capacity = 64

let make_shard cap =
  {
    lock = Mutex.create ();
    keys = Array.make cap 0;
    masks = Array.make cap 0;
    count = 0;
  }

let rec pow2 c k = if k >= c then k else pow2 c (k * 2)

(* The shard count is part of a bitstate set's probe mapping, so it is a
   constant: a search's pruning never depends on how it is run. Four
   shards also keep an exact set's growth incremental — one large table
   would double all at once (a measurably higher peak RSS). *)
let nshards = 4

let create ?(initial_capacity = 0) () =
  (* Pre-size each shard so [initial_capacity] keys fit without a grow
     step: tables double once 2*count >= capacity, so the per-shard
     capacity must stay above twice the expected per-shard share. *)
  let cap = pow2 (max min_capacity ((2 * initial_capacity / nshards) + 1)) 1 in
  Exact
    {
      shards = Array.init nshards (fun _ -> make_shard cap);
      shard_mask = nshards - 1;
    }

(* Each bit shard holds at least 2^10 bits so tiny arrays never shard
   below one mutex's worth of bits. *)
let min_shard_bits = 1024

let create_bitstate ?(salt = 0) ~bits () =
  if bits < 10 || bits > 36 then
    invalid_arg "Vset.create_bitstate: bits must be in 10..36";
  let total_bits = 1 lsl bits in
  let n = min nshards (total_bits / min_shard_bits) in
  let bps = total_bits / n in
  Bitstate
    {
      bshards =
        Array.init n (fun _ ->
            {
              block = Mutex.create ();
              words = Array.make (bps lsr 5) 0;
              inserts = 0;
              set_bits = 0;
            });
      bshard_mask = n - 1;
      bit_mask = bps - 1;
      salt = (if salt = 0 then 0 else remix (salt + 0x9E37));
      total_bits;
    }

let is_bitstate = function Exact _ -> false | Bitstate _ -> true

(* [keys] slot 0 is the empty sentinel, so the (astronomically unlikely)
   key 0 is nudged onto a fixed non-zero value. *)
let normalize key = if key = 0 then 0x5EED else key

let slot_of keys key =
  let cap_mask = Array.length keys - 1 in
  let rec probe i =
    let k = keys.(i) in
    if k = 0 || k = key then i else probe ((i + 1) land cap_mask)
  in
  probe (remix key land cap_mask)

let grow s =
  let old_keys = s.keys and old_masks = s.masks in
  let cap = Array.length old_keys * 2 in
  s.keys <- Array.make cap 0;
  s.masks <- Array.make cap 0;
  Array.iteri
    (fun i k ->
      if k <> 0 then begin
        let j = slot_of s.keys k in
        s.keys.(j) <- k;
        s.masks.(j) <- old_masks.(i)
      end)
    old_keys

(* The two probe bits come from independent remix rounds of the salted
   key; the shard index from the low bits of the first round (the probe
   bits skip those via the shift, so shard and bit indices stay
   decorrelated). Both probes land in the same shard — one lock per
   query. *)
let[@inline] bit_probes b key =
  let h = remix (key lxor b.salt) in
  let s = h land b.bshard_mask in
  let b1 = (h lsr 6) land b.bit_mask in
  let b2 = remix h land b.bit_mask in
  (s, b1, b2)

let[@inline] bit_test words bit =
  words.(bit lsr 5) land (1 lsl (bit land 31)) <> 0

let[@inline] bit_test_set s bit =
  let w = bit lsr 5 in
  let m = 1 lsl (bit land 31) in
  let old = s.words.(w) in
  if old land m <> 0 then true
  else begin
    s.words.(w) <- old lor m;
    s.set_bits <- s.set_bits + 1;
    false
  end

let covers_or_add t key ~bit ~closure =
  match t with
  | Exact t ->
    let key = normalize key in
    let s = t.shards.(remix (key lxor 0x3F) land t.shard_mask) in
    Mutex.lock s.lock;
    let covered =
      let i = slot_of s.keys key in
      if s.keys.(i) = key then
        if s.masks.(i) land bit <> 0 then true
        else begin
          s.masks.(i) <- s.masks.(i) lor closure;
          false
        end
      else begin
        s.keys.(i) <- key;
        s.masks.(i) <- closure;
        s.count <- s.count + 1;
        if 2 * s.count >= Array.length s.keys then grow s;
        false
      end
    in
    Mutex.unlock s.lock;
    covered
  | Bitstate b ->
    ignore bit;
    ignore closure;
    let si, b1, b2 = bit_probes b key in
    let s = b.bshards.(si) in
    Mutex.lock s.block;
    let c1 = bit_test_set s b1 in
    let c2 = bit_test_set s b2 in
    let covered = c1 && c2 in
    if not covered then s.inserts <- s.inserts + 1;
    Mutex.unlock s.block;
    covered

let mem t key =
  match t with
  | Exact t ->
    let key = normalize key in
    let s = t.shards.(remix (key lxor 0x3F) land t.shard_mask) in
    Mutex.lock s.lock;
    let i = slot_of s.keys key in
    let found = s.keys.(i) = key in
    Mutex.unlock s.lock;
    found
  | Bitstate b ->
    let si, b1, b2 = bit_probes b key in
    let s = b.bshards.(si) in
    Mutex.lock s.block;
    let found = bit_test s.words b1 && bit_test s.words b2 in
    Mutex.unlock s.block;
    found

let cardinal t =
  match t with
  | Exact t ->
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.lock;
        let c = s.count in
        Mutex.unlock s.lock;
        acc + c)
      0 t.shards
  | Bitstate b ->
    Array.fold_left
      (fun acc s ->
        Mutex.lock s.block;
        let c = s.inserts in
        Mutex.unlock s.block;
        acc + c)
      0 b.bshards

let stats t =
  match t with
  | Exact _ -> None
  | Bitstate b ->
    let set =
      Array.fold_left
        (fun acc s ->
          Mutex.lock s.block;
          let c = s.set_bits in
          Mutex.unlock s.block;
          acc + c)
        0 b.bshards
    in
    let occupancy = float_of_int set /. float_of_int b.total_bits in
    (* Probability a fresh state's two independent probe bits are both
       already set: occupancy² (the classic supertrace estimate; probes
       within one query are not independent of each other when they
       coincide, which adds at most 1/bits-per-shard). *)
    Some (occupancy, occupancy *. occupancy)
