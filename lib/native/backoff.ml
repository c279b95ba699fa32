(** Seeded, capped exponential backoff for native spin loops.

    Every native spin ([Crash.spin_until], [Backend.await], [Crash.park])
    funnels through one of these per domain. The policy is the classic
    randomized exponential one: each miss waits a uniform number of
    [Domain.cpu_relax] pauses drawn from a window that doubles up to a
    ceiling; once the window saturates the waiter also yields to the OS
    (a zero-length sleep), which is what breaks scheduler convoys on
    oversubscribed or single-core machines.

    Determinism: the draw sequence comes from a [Random.State] seeded at
    creation, so for a fixed seed the spin plan replays byte-identically
    ([test/test_native.ml] pins this). The state never touches the global
    RNG.

    Allocation: [once]/[plan] are allocation-free in steady state — the
    stdlib LXM [Random.State.int] with a small bound boxes nothing, and
    the window update is a mutable field. Only [create] allocates. *)

type mode =
  | Exponential  (** randomized doubling window, OS yield when saturated *)
  | Relax  (** the pre-backoff substrate behaviour: one [cpu_relax] per
               miss, a 1 µs sleep every 256th — kept as an ablation
               reference *)
  | Spin  (** pure [cpu_relax], never yields — the textbook backoff-free
              spin, the "bare" column of E14's ablation *)

let mode_name = function
  | Exponential -> "backoff"
  | Relax -> "relax"
  | Spin -> "spin"

let modes = [ Exponential; Relax; Spin ]
let mode_of_name s = List.find_opt (fun m -> mode_name m = s) modes

type t = {
  mode : mode;
  rng : Random.State.t;
  ceiling : int;  (** max window, in cpu_relax units *)
  mutable window : int;
  mutable misses : int;  (** misses since [reset]; drives Relax's yield *)
}

let default_ceiling = 1024

let create ?(mode = Exponential) ?(ceiling = default_ceiling) ~seed () =
  {
    mode;
    rng = Random.State.make [| 0x524d45; seed |];
    ceiling = max 1 ceiling;
    window = 1;
    misses = 0;
  }

(* A fresh acquisition attempt starts from the smallest window: backoff
   penalizes sustained contention, not the first miss of a new spin. *)
let reset t =
  t.window <- 1;
  t.misses <- 0

(* Draw the next wait (in cpu_relax units) and advance the window —
   without performing it. Exposed so tests can capture the plan of a
   seeded instance and compare replays exactly. *)
let plan t =
  t.misses <- t.misses + 1;
  match t.mode with
  | Spin | Relax -> 1
  | Exponential ->
    let spins = 1 + Random.State.int t.rng t.window in
    if t.window < t.ceiling then t.window <- t.window lsl 1;
    spins

let saturated t = t.window >= t.ceiling

(* One backoff step: pause for the planned number of relaxes, then yield
   to the OS if the policy calls for it. Callers re-check their predicate
   (and the crash flag) between steps, never inside one. *)
let once t =
  let spins = plan t in
  for _ = 1 to spins do
    Domain.cpu_relax ()
  done;
  match t.mode with
  | Spin -> ()
  | Relax -> if t.misses land 0xff = 0 then Unix.sleepf 1e-6
  | Exponential -> if saturated t then Unix.sleepf 1e-6
