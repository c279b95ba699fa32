(* Seeded bounded Zipf(theta) sampler over keys [0 .. keys-1], via the
   YCSB-style approximate inversion (Gray et al., "Quickly generating
   billion-record synthetic databases", SIGMOD '94): one uniform draw, a
   handful of float ops, no rejection loop. Setup is O(keys) (the zeta
   partial sum) and lives in [dist], computed once per (theta, keys) and
   shared by every seeded [sampler] over it; sampling is O(1).

   Determinism: the only randomness is the private [Random.State] created
   from [seed], so a fixed seed replays the exact key sequence —
   test/test_service.ml pins this. The global RNG is never touched.

   [theta] is restricted to [0, 1) — the classical YCSB range, where the
   inversion constants are well-defined ([theta = 1] makes [alpha]
   divide by zero). [theta = 0.] degenerates to the uniform
   distribution; [0.99] is the YCSB "zipfian" default. *)

type dist = {
  keys : int;
  theta : float;
  zetan : float;  (** zeta(keys, theta) = sum_{i=1..keys} 1/i^theta *)
  alpha : float;  (** 1 / (1 - theta) *)
  eta : float;
  threshold : float;  (** 1 + 0.5^theta: the cumulative mass of keys 0,1 *)
}

type t = { d : dist; rng : Random.State.t }

let zeta ~theta n =
  let z = ref 0. in
  for i = 1 to n do
    z := !z +. (1. /. (float_of_int i ** theta))
  done;
  !z

let dist ?(theta = 0.99) ~keys () =
  if keys < 1 then invalid_arg "Zipf.dist: keys must be >= 1";
  if theta < 0. || theta >= 1. then
    invalid_arg "Zipf.dist: theta must be in [0, 1)";
  let zetan = zeta ~theta keys in
  (* For keys <= 2 the inversion's third branch is unreachable (the first
     two keys carry all the mass), and the eta formula is 0/0 there. *)
  let eta =
    if keys <= 2 then 0.
    else
      let zeta2 = zeta ~theta 2 in
      (1. -. ((2. /. float_of_int keys) ** (1. -. theta)))
      /. (1. -. (zeta2 /. zetan))
  in
  {
    keys;
    theta;
    zetan;
    alpha = 1. /. (1. -. theta);
    eta;
    threshold = 1. +. (0.5 ** theta);
  }

let sampler d ~seed = { d; rng = Random.State.make [| 0x7a69; seed |] }

let create ?theta ~seed ~keys () = sampler (dist ?theta ~keys ()) ~seed

let keys t = t.d.keys
let theta t = t.d.theta

let sample { d; rng } =
  if d.keys = 1 then 0
  else begin
    let u = Random.State.float rng 1.0 in
    let uz = u *. d.zetan in
    if uz < 1.0 then 0
    else if uz < d.threshold then 1
    else begin
      let k =
        int_of_float
          (float_of_int d.keys *. (((d.eta *. u) -. d.eta +. 1.) ** d.alpha))
      in
      if k >= d.keys then d.keys - 1 else if k < 0 then 0 else k
    end
  end
