(** Seeded bounded Zipf sampler over integer keys [0 .. keys-1] — the
    contention model of the service traffic generator (YCSB-style
    approximate inversion: O(keys) setup per {!dist}, O(1) per sample).

    All randomness lives in a private [Random.State] made from [seed], so
    a fixed seed replays the exact key sequence; the global RNG is never
    touched. *)

type dist
(** The distribution's constants for one [(theta, keys)]: the O(keys)
    part of the setup, shared by any number of samplers. *)

type t
(** A seeded sampler over a {!dist}. *)

val dist : ?theta:float -> keys:int -> unit -> dist
(** [dist ~keys ()] computes the constants. [theta] (default [0.99], the
    YCSB "zipfian" constant) sets the skew and must lie in [0, 1);
    [theta = 0.] is the uniform distribution. Key 0 is the hottest.
    @raise Invalid_argument if [keys < 1] or [theta] is out of range. *)

val sampler : dist -> seed:int -> t
(** A sampler over [dist] whose key sequence is a pure function of
    [seed]. O(1): no constant is recomputed. *)

val create : ?theta:float -> seed:int -> keys:int -> unit -> t
(** [create ?theta ~seed ~keys ()] is [sampler (dist ?theta ~keys ()) ~seed].
    @raise Invalid_argument as {!dist}. *)

val sample : t -> int
(** Draw the next key, in [0 .. keys-1]. Allocation-free. *)

val keys : t -> int
val theta : t -> float

val zeta : theta:float -> int -> float
(** [zeta ~theta n] = Σ_{i=1..n} 1/i^θ — exposed so tests can check the
    sampler's head frequencies against the exact distribution. *)
