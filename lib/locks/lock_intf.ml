(** Interface of a {e conventional} mutual-exclusion lock (Dijkstra-style),
    as required by Transformation 1 of the paper: an entry protocol, an exit
    protocol, and a sequential [reset] that restores the lock to its initial
    state (executed by the recovery leader while no other process accesses
    the lock — Lemma 4.2 guarantees exclusivity).

    Locks are first-class values so that the paper's transformations compose
    as ordinary functions. All shared accesses must go through {!Sim.Proc};
    any per-process private bookkeeping lives in plain OCaml state and must
    be cleared by [reset] (private state is lost in a crash anyway, and
    [reset] runs before any post-crash entry). The model checker also
    reuses one built lock across runs ({!Sim.Memory.reset}): private
    state that a passage reads before writing, and that carries from one
    passage to the next (CLH's [my_node]), must register its restore
    with {!Sim.Memory.on_reset}. State written before it is read in every
    passage (ticket's [my_ticket], Anderson's [my_slot]) needs none. *)

type mutex = {
  name : string;
  enter : pid:int -> unit;
  exit : pid:int -> unit;
  reset : pid:int -> unit;
}

(** Alias used by modules that also define their own [exit]. *)
type t = mutex
