(* Pregenerated open-loop traffic: the "millions of clients" that the
   bounded worker domains replay.

   Each worker domain gets one stream — an array of logical keys (drawn
   from a per-worker seeded Zipf sampler) and a parallel array of
   absolute arrival offsets in nanoseconds from the worker's start
   instant. Pregenerating both makes the serving hot loop allocation-free
   (the worker only reads int arrays) and makes replay trivial: the whole
   workload is a pure function of the configuration and the seed, which
   [fingerprint] digests so harnesses can pin byte-identical regeneration
   without comparing arrays.

   Arrival model: open loop. Interarrival gaps are exponential with mean
   [1/rate_rps] (the Poisson arrivals of an open system, drawn from a
   per-worker [Random.State]) plus a fixed [think_ns] — so think time
   shapes the offered load at generation time rather than coupling
   arrivals to completions. [rate_rps = 0.] means no pacing at all: every
   request is due at t=0 and the stream degenerates to a saturating
   closed loop, which is what throughput rows want.

   A worker configured with a smaller budget than [per_worker] serves a
   prefix of its stream; generating at full size and truncating at run
   time is what lets a --quick bench run replay a prefix of the exact
   workload the full run serves. *)

type stream = {
  s_keys : int array;  (** request i targets logical key [s_keys.(i)] *)
  s_arrival_ns : int array;
      (** nondecreasing arrival offsets from worker start, ns *)
}

type t = {
  workers : int;
  per_worker : int;
  key_space : int;
  theta : float;
  rate_rps : float;
  think_ns : int;
  seed : int;
  streams : stream array;
  fingerprint : int;
}

let fingerprint t = t.fingerprint

let float_bits f = Int64.to_int (Int64.bits_of_float f)

let make ?(theta = 0.99) ?(rate_rps = 0.) ?(think_ns = 0) ~seed ~workers
    ~per_worker ~key_space () =
  if workers < 1 then invalid_arg "Traffic.make: workers must be >= 1";
  if per_worker < 0 then invalid_arg "Traffic.make: per_worker must be >= 0";
  if key_space < 1 then invalid_arg "Traffic.make: key_space must be >= 1";
  if rate_rps < 0. then invalid_arg "Traffic.make: rate_rps must be >= 0";
  if think_ns < 0 then invalid_arg "Traffic.make: think_ns must be >= 0";
  let dist = Zipf.dist ~theta ~keys:key_space () in
  let streams =
    Array.init workers (fun w ->
        (* Decorrelate workers by folding the worker index into the seed
           with the fingerprint mix — adjacent seeds stay uncorrelated. *)
        let wseed = Sim.Encode.mix seed (w + 1) land max_int in
        let zipf = Zipf.sampler dist ~seed:wseed in
        let arrival_rng = Random.State.make [| 0x7472; wseed |] in
        let s_keys = Array.init per_worker (fun _ -> Zipf.sample zipf) in
        let s_arrival_ns = Array.make per_worker 0 in
        let at = ref 0 in
        for i = 0 to per_worker - 1 do
          let gap =
            if rate_rps > 0. then
              let u = Random.State.float arrival_rng 1.0 in
              int_of_float (-.log (1. -. u) *. 1e9 /. rate_rps)
            else 0
          in
          at := !at + gap + think_ns;
          s_arrival_ns.(i) <- !at
        done;
        { s_keys; s_arrival_ns })
  in
  let fingerprint =
    let h = ref Sim.Encode.fingerprint_seed in
    List.iter
      (fun v -> h := Sim.Encode.mix !h v)
      [
        workers; per_worker; key_space; float_bits theta; float_bits rate_rps;
        think_ns; seed;
      ];
    Array.iter
      (fun st ->
        h := Sim.Encode.mix_array !h st.s_keys;
        h := Sim.Encode.mix_array !h st.s_arrival_ns)
      streams;
    !h
  in
  {
    workers; per_worker; key_space; theta; rate_rps; think_ns; seed; streams;
    fingerprint;
  }
