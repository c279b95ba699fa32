(** The BACKEND signature: the shared-memory substrate over which the
    paper's algorithms (the functors in [lib/core] and the base locks in
    [lib/locks]) are transcribed {e exactly once}.

    Two implementations exist:

    - {!Backend} (this library): every operation is a {!Proc} effect — a
      scheduling point of the simulator, charged by the CC/DSM RMR
      accounting of {!Memory}. Crashes destroy the fiber mid-operation.
    - [Rme_native.Backend]: operations map to OCaml 5 [Atomic] (via the
      old-value-returning [Natomic.cas]); [await] polls the stop-the-world
      crash flag through [Crash.spin_until], so a waiter whose grantor
      crashed unwinds instead of hanging.

    Design notes, mirrored from the paper's model (Section 2):

    - Cells hold plain [int]s; RMW primitives return the {e old} value,
      the convention of the paper's pseudo-code (Fig. 1 line 10 compares
      the CAS result against [epoch]).
    - [cell]/[global] take the DSM [home] process and a diagnostic name,
      given as a prefix plus up to two indices ([~name:"t1(mcs).bar.S"
      ~i:2] is [t1(mcs).bar.S[2]]). Names are diagnostic only: the
      simulator stores the parts and formats them on demand
      ({!Memory.name}, for traces and deadlock reports), and backends
      that do no accounting (native) ignore name, indices and home, so
      building a structure formats no string per cell.
    - [await] is the only blocking operation: algorithm spins must go
      through it (never a loop over [read]) so that the simulator's
      schedulers and model checker see spin-blocked processes, and so the
      native backend can poll the crash flag. It receives the [mem] handle
      because the native backend needs the crash protocol there; the
      simulator ignores it.
    - There is no explicit crash/epoch query: the current epoch is an
      argument to every [recover]/[enter]/[exit] section (the environment
      supplies it, per the model), and crash delivery is the backend's
      business — fiber discontinuation in the simulator, the polled flag
      natively. *)

module type S = sig
  type mem
  (** The substrate instance: allocation context, process count, cost
      model, and (natively) the crash protocol handle. *)

  type cell
  (** A shared single-word cell (register or RMW object). *)

  val n : mem -> int
  (** Number of processes [1..n]. *)

  val model : mem -> Memory.model
  (** Which of the paper's cost models governs model-dependent algorithm
      paths (Fig. 2's Barrier dispatches on it). Natively, [Cc] selects
      the global-spin barrier and [Dsm] the full distributed machinery. *)

  val cell : mem -> name:string -> ?i:int -> ?j:int -> home:int -> int -> cell
  (** [cell mem ~name ?i ?j ~home init] allocates a cell homed (DSM) at
      [home], named [name[i][j]] (absent indices omitted). *)

  val global : mem -> name:string -> ?i:int -> ?j:int -> int -> cell
  (** A variable with no natural owner, homed at process 1 as the DSM
      model requires. *)

  val read : cell -> int

  val write : cell -> int -> unit

  val cas : cell -> expect:int -> repl:int -> int
  (** Compare-and-swap returning the {e old} value; the swap happened iff
      the result equals [expect]. *)

  val cas_success : cell -> expect:int -> repl:int -> bool

  val fas : cell -> int -> int
  (** Fetch-and-store (atomic swap); returns the old value. *)

  val faa : cell -> int -> int
  (** Fetch-and-add; returns the old value. *)

  val await : mem -> cell -> until:(int -> bool) -> int
  (** [await mem c ~until] busy-waits on [c] until [until] holds of the
      value read; returns that value. Each re-check is a charged read in
      the simulator; natively it polls the crash flag between relaxed
      re-reads. *)
end
