open Sim

(** Jayanti–Jayanti–Joshi, Algorithm 2 (arXiv 2302.00748): the
    constant-RMR RME lock for system-wide failures that is O(1) RMRs
    per passage in {e both} the CC and DSM models, including the
    recovery path. The passage structure is Algorithm 1's epoch-token
    queue ({!Jjj_cc} — see its header for the mechanism and for the
    reconstruction caveat recorded in DESIGN.md §5.18); the difference
    is the recovery section: where Algorithm 1's seal-race loser spins
    on the global seal cell (free only under CC caching), Algorithm 2
    funnels every process through the source paper's recovery barrier
    (Fig. 2, Theorem 3.3), whose DSM path signals each waiter on a cell
    homed at that waiter — O(1) RMRs per process in both models.

    The spin cells [grant.(p)] and link cells [next.(p)] are homed at p,
    so the steady-state passage is already local-spin in DSM; the
    barrier closes the only remaining model-dependent gap. *)

module Make (B : Backend_intf.S) = struct
  module Bar = Barrier.Make (B)

  let make mem =
    let n = B.n mem in
    let dummy = B.global mem ~name:"jjj-dsm.unused" 0 in
    let field name i = if i = 0 then dummy else B.cell mem ~name ~i ~home:i 0 in
    let next = Array.init (n + 1) (field "jjj-dsm.next") in
    let grant = Array.init (n + 1) (field "jjj-dsm.grant") in
    let tail = B.global mem ~name:"jjj-dsm.tail" 0 in
    let seal = B.global mem ~name:"jjj-dsm.seal" 0 in
    let barrier = Bar.create mem ~name:"jjj-dsm.bar" in
    (* Recover, lines 22-29: the seal cell is Transformation 1's
       three-state C-cell protocol (Fig. 3 lines 62-72); the wait is the
       Fig. 2 barrier instead of Algorithm 1's global seal spin. *)
    let recover ~pid ~epoch =
      let cur = B.read seal in
      if -epoch < cur && cur < epoch then begin
        if B.cas seal ~expect:cur ~repl:(-epoch) = cur then begin
          B.write tail 0;
          B.write seal epoch;
          Bar.enter barrier ~pid ~epoch ~leader:true
        end
        else Bar.enter barrier ~pid ~epoch ~leader:false
      end
      else if cur = -epoch then Bar.enter barrier ~pid ~epoch ~leader:false
      (* else cur = epoch: steady state, nothing to repair. *)
    in
    (* Enter, lines 30-36 — Algorithm 1 lines 9-15. *)
    let enter ~pid ~epoch =
      B.write next.(pid) 0;
      B.write grant.(pid) 0;
      let pred = B.fas tail pid in
      if pred <> 0 then begin
        B.write next.(pred) pid;
        ignore (B.await mem grant.(pid) ~until:(fun v -> v = epoch))
      end
    in
    (* Exit, lines 37-42 — Algorithm 1 lines 16-21. *)
    let exit ~pid ~epoch =
      let succ = B.read next.(pid) in
      if succ = 0 then begin
        if not (B.cas_success tail ~expect:pid ~repl:0) then begin
          let succ = B.await mem next.(pid) ~until:(fun v -> v <> 0) in
          B.write grant.(succ) epoch
        end
      end
      else B.write grant.(succ) epoch
    in
    { Rme_intf.name = "jjj-dsm"; recover; enter; exit }
end

include Make (Backend)
