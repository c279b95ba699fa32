(** Ticket lock (fetch-and-add). FIFO and starvation-free, but all waiters
    spin on the shared [serving] counter: Θ(N) RMRs per passage in the CC
    model (every hand-off invalidates every waiter) and unbounded in the
    DSM model. Baseline only.

    Transcribed once as {!Make} over the shared-memory backend: [make]
    is the simulated instantiation, and the native registry instantiates
    {!Make} over [Rme_native.Backend]. *)

module Make (B : Sim.Backend_intf.S) : sig
  val make : B.mem -> Lock_intf.mutex
end

val make : Sim.Memory.t -> Lock_intf.mutex
