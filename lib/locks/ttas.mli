(** Test-and-test-and-set spin lock: spins by reading (cache-friendly in the
    CC model) and attempts the CAS only when the lock looks free. Still
    unbounded RMRs in the DSM model (the spin variable is remote for all but
    one process). Deadlock-free but not starvation-free. Baseline only.

    Transcribed once as {!Make} over the shared-memory backend: [make]
    is the simulated instantiation, and the native registry instantiates
    {!Make} over [Rme_native.Backend]. *)

module Make (B : Sim.Backend_intf.S) : sig
  val make : B.mem -> Lock_intf.mutex
end

val make : Sim.Memory.t -> Lock_intf.mutex
