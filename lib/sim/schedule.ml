type decision = Step of int | Crash | Crash_one of int

type t = clock:int -> enabled:Bitset.t -> decision option

let round_robin () : t =
  let last = ref 0 in
  fun ~clock:_ ~enabled ->
    let next = Bitset.next enabled !last in
    let next = if next = 0 then Bitset.next enabled 0 else next in
    if next = 0 then None
    else begin
      last := next;
      Some (Step next)
    end

let uniform ~seed : t =
  let rng = Random.State.make [| seed |] in
  fun ~clock:_ ~enabled ->
    let k = Bitset.cardinal enabled in
    if k = 0 then None
    else Some (Step (Bitset.nth enabled (Random.State.int rng k)))

let geometric_bias ~seed p : t =
  if not (p > 0. && p <= 1.) then
    invalid_arg "Schedule.geometric_bias: p must be in (0, 1]";
  let rng = Random.State.make [| seed |] in
  (* One draw per member but the last, in ascending order. *)
  let rec pick enabled pid =
    let rest = Bitset.next enabled pid in
    if rest = 0 || Random.State.float rng 1.0 < p then pid
    else pick enabled rest
  in
  fun ~clock:_ ~enabled ->
    let first = Bitset.next enabled 0 in
    if first = 0 then None else Some (Step (pick enabled first))

let of_list decisions : t =
  let remaining = ref decisions in
  fun ~clock:_ ~enabled ->
    let rec next () =
      match !remaining with
      | [] -> None
      | d :: rest -> (
        remaining := rest;
        match d with
        | Crash -> Some Crash
        | Crash_one pid -> Some (Crash_one pid)
        | Step pid ->
          if Bitset.mem enabled pid then Some (Step pid) else next ())
    in
    next ()

let with_crashes ~every inner : t =
  if every < 1 then invalid_arg "Schedule.with_crashes: every must be >= 1";
  let ticks = ref 0 in
  fun ~clock ~enabled ->
    incr ticks;
    if !ticks mod (every + 1) = 0 then Some Crash
    else inner ~clock ~enabled

let with_random_crashes ~seed ~mean ?(bursty = false) inner : t =
  if mean < 1 then invalid_arg "Schedule.with_random_crashes: mean must be >= 1";
  let rng = Random.State.make [| seed; 0x5afe |] in
  let burst = ref false in
  fun ~clock ~enabled ->
    let crash_now =
      if !burst then begin
        burst := false;
        true
      end
      else Random.State.int rng mean = 0
    in
    if crash_now then begin
      if bursty && Random.State.bool rng then burst := true;
      Some Crash
    end
    else inner ~clock ~enabled

let with_individual_crashes ~seed ~mean ~n inner : t =
  if mean < 1 then
    invalid_arg "Schedule.with_individual_crashes: mean must be >= 1";
  let rng = Random.State.make [| seed; 0x1d1e |] in
  fun ~clock ~enabled ->
    if Random.State.int rng mean = 0 then
      Some (Crash_one (1 + Random.State.int rng n))
    else inner ~clock ~enabled

let stop_after budget inner : t =
  fun ~clock ~enabled ->
    if clock >= budget then None else inner ~clock ~enabled
