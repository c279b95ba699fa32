open Sim

(** Jayanti–Jayanti–Joshi, Algorithm 1 (arXiv 2302.00748): the lean
    constant-RMR RME lock for {e system-wide} failures — an implicit
    FAS queue in the style of MCS whose hand-off tokens are {e epoch
    numbers}, so that a crash invalidates every outstanding grant by
    construction and recovery repairs the lock with a single write.

    Reconstruction note (documented in DESIGN.md §5.18): the arXiv full
    text is not redistributable inside this repository, so the line
    numbers below follow our own numbering of the algorithm as
    reconstructed from the published interface — two locks for the
    system-wide crash model, the first O(1) space beyond the per-process
    queue cells and O(1) RMR in CC, built from CAS and FAS. Its safety
    and RMR envelope are pinned empirically: model checking at small
    bounds (test_model_check), seeded storms with fault injection
    (test_transforms, test_scenario), sim≡native differential parity
    (test_differential), and the E16 flatness gate.

    Mechanism, and why each piece is crash-safe without any reset:

    - [grant.(p)] carries the epoch in which p may enter, not a boolean.
      Exiting in epoch e hands off by writing e; the waiter awaits
      exactly e. A grant written before a crash carries a stale (smaller)
      epoch and can never satisfy a later wait, and each process clears
      its own cell on (re-)entry, so grants need no recovery action.
    - [next.(p)] is rewritten by p itself at the top of every enter,
      before p becomes visible on the queue, so half-formed pre-crash
      links are overwritten before anyone can traverse them.
    - Only [tail] retains live pre-crash state; the recovery section
      resets it exactly once per epoch under the seal protocol below.

    Recovery (lines 1–8) is the CC-model specialization: the loser of
    the seal race spins on the {e global} seal cell. The seal is written
    once per epoch, so the spin costs O(1) RMRs in CC (each re-read is
    cached until the winner's single write) — this is the algorithm's
    O(1)-space / CC-only trade; Algorithm 2 ({!Jjj_dsm}) replaces this
    spin with the paper's Fig. 2 barrier to be constant-RMR in DSM too.

    The seal cell follows Transformation 1's proven three-state C-cell
    protocol (Fig. 3 lines 62-72): [e] = repaired for epoch e, [-e] =
    repair in progress, anything in (-e, e) = stale. A crash during
    repair leaves [-e], which the next epoch treats as stale. *)

module Make (B : Backend_intf.S) = struct
  let make mem =
    let n = B.n mem in
    let dummy = B.global mem ~name:"jjj-cc.unused" 0 in
    let field name i = if i = 0 then dummy else B.cell mem ~name ~i ~home:i 0 in
    let next = Array.init (n + 1) (field "jjj-cc.next") in
    let grant = Array.init (n + 1) (field "jjj-cc.grant") in
    let tail = B.global mem ~name:"jjj-cc.tail" 0 in
    let seal = B.global mem ~name:"jjj-cc.seal" 0 in
    (* Recover, lines 1-8. *)
    let recover ~pid:_ ~epoch =
      let cur = B.read seal in
      if cur <> epoch then
        if -epoch < cur && cur < epoch then begin
          (* Line 3: elect the repairer; the CAS winner owns the epoch. *)
          if B.cas seal ~expect:cur ~repl:(-epoch) = cur then begin
            B.write tail 0;
            B.write seal epoch
          end
          else
            (* Line 6: lost the election — wait out the repair. The seal
               is written once per epoch, so this global spin is O(1)
               RMRs in the CC model (Algorithm 1's model restriction). *)
            ignore (B.await mem seal ~until:(fun v -> v = epoch))
        end
        else
          (* Line 8: cur = -epoch, repair already in progress. *)
          ignore (B.await mem seal ~until:(fun v -> v = epoch))
    in
    (* Enter, lines 9-15. *)
    let enter ~pid ~epoch =
      B.write next.(pid) 0;
      (* Line 10: clear the grant before publishing on the queue, so a
         grant earned by an earlier passage (same epoch) cannot satisfy
         this wait — the epoch token alone only filters older epochs. *)
      B.write grant.(pid) 0;
      let pred = B.fas tail pid in
      if pred <> 0 then begin
        B.write next.(pred) pid;
        ignore (B.await mem grant.(pid) ~until:(fun v -> v = epoch))
      end
    in
    (* Exit, lines 16-21. *)
    let exit ~pid ~epoch =
      let succ = B.read next.(pid) in
      if succ = 0 then begin
        if not (B.cas_success tail ~expect:pid ~repl:0) then begin
          (* Line 19: a successor is mid-enqueue; wait for its link. *)
          let succ = B.await mem next.(pid) ~until:(fun v -> v <> 0) in
          B.write grant.(succ) epoch
        end
      end
      else B.write grant.(succ) epoch
    in
    { Rme_intf.name = "jjj-cc"; recover; enter; exit }
end

include Make (Backend)
