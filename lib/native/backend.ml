(** The native instantiation of {!Sim.Backend_intf.S}: cells are OCaml 5
    [Atomic]s (CAS through the old-value-returning {!Natomic.cas}, per the
    paper's convention), and [await] polls the stop-the-world crash flag —
    a waiter whose grantor crashed unwinds with {!Crash.Crashed} instead
    of hanging, which is what makes the failure system-wide on real
    domains.

    Cell names (prefix and indices) and DSM homes are accepted and
    ignored, so materializing a stack formats no string: RMR accounting
    is a model-level notion the simulator implements; natively the
    hardware decides. [model] selects which of the paper's
    model-dependent paths runs (Fig. 2's Barrier): [Cc] — the default,
    the natural global spin on cache-coherent hardware — or [Dsm], the
    full distributed secondary-leader machinery, worth running natively
    as a differential test of the paper's most intricate code against
    real interleavings.

    Hardware-awareness (DESIGN.md §5.15): cells are cache-line padded by
    default ({!Natomic.make_padded}; [~padded:false] restores bare
    [Atomic.make] for E14's false-sharing ablation), and [await] spins
    through the crash handle's seeded exponential backoff without
    allocating — no per-call closure or ref, so the passage path stays
    GC-silent under contention. *)

type mem = {
  crash : Crash.t;
  n : int;
  model : Sim.Memory.model;
  padded : bool;
}

type cell = int Atomic.t

let create ?(model = Sim.Memory.Cc) ?(padded = true) crash ~n =
  { crash; n; model; padded }

let crash_of m = m.crash

let n m = m.n

let model m = m.model

let padded m = m.padded

let alloc m init =
  if m.padded then Natomic.make_padded init else Atomic.make init

let cell m ~name:_ ?i:_ ?j:_ ~home:_ init = alloc m init

let global m ~name:_ ?i:_ ?j:_ init = alloc m init

let read = Atomic.get

let write = Atomic.set

let cas = Natomic.cas

let cas_success = Natomic.cas_success

let fas = Natomic.fas

let faa = Natomic.faa

(* Busy-wait allocation-free: the old implementation built a fresh [ref]
   plus closure per call — hot-path garbage under contention. The crash
   flag is checked before every read so a system-wide failure unwinds the
   waiter; between misses the domain's cached [Backoff] paces the spin. *)
let rec await_spin crash b c ~until =
  Crash.check crash;
  let v = Atomic.get c in
  if until v then v
  else begin
    Backoff.once b;
    await_spin crash b c ~until
  end

let await m c ~until =
  Crash.check m.crash;
  let v = Atomic.get c in
  if until v then v
  else begin
    let b = Crash.backoff m.crash in
    Backoff.reset b;
    Backoff.once b;
    await_spin m.crash b c ~until
  end
