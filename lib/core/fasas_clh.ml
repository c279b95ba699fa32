open Sim

(* Phases of a passage, persisted per process. *)
let idle = 0
let trying = 1
let have = 2
let releasing = 3

(* my_pred sentinel: not enqueued. Node IDs are >= 0. *)
let not_enqueued = -1

let make mem =
  let n = Memory.n mem in
  let local name i init = Memory.cell mem ~name ~i ~home:(Stdlib.max i 1) init in
  (* node.(0) is the permanently-released dummy; process i owns nodes
     2i and 2i+1 (indices 2i, 2i+1 in a flat array). *)
  let node =
    Array.init ((2 * n) + 2) (fun j ->
        Memory.cell mem ~name:"rclh.node" ~i:j ~home:(Stdlib.max (j / 2) 1) 0)
  in
  let tail = Memory.global mem ~name:"rclh.tail" 0 in
  let phase = Array.init (n + 1) (fun i -> local "rclh.phase" i idle) in
  let my_node = Array.init (n + 1) (fun i -> local "rclh.myNode" i 0) in
  let my_pred = Array.init (n + 1) (fun i -> local "rclh.myPred" i not_enqueued) in
  let parity = Array.init (n + 1) (fun i -> local "rclh.parity" i 0) in
  (* Idempotent exit roll-forward: release, advance the parity (derived
     from the released node, so re-execution recomputes the same value),
     clear the enqueue guard, go idle. Runs under phase = releasing. *)
  let finish_exit ~pid =
    if Proc.read my_pred.(pid) <> not_enqueued then begin
      let mine = Proc.read my_node.(pid) in
      Proc.write node.(mine) 0;
      Proc.write parity.(pid) (1 - (mine land 1));
      Proc.write my_pred.(pid) not_enqueued
    end;
    Proc.write phase.(pid) idle
  in
  let recover ~pid ~epoch:_ =
    (* Roll an interrupted exit forward so the passage restarts cleanly;
       interrupted entries and in-CS crashes are handled by [enter]. *)
    if Proc.read phase.(pid) = releasing then finish_exit ~pid
  in
  let enter ~pid ~epoch:_ =
    let ph = Proc.read phase.(pid) in
    if ph = have then
      (* Crashed inside the CS: we still hold the lock (nobody can have
         passed our busy node) — resume ownership. CSR for free. *)
      ()
    else begin
      if ph = releasing then finish_exit ~pid;
      Proc.write phase.(pid) trying;
      if Proc.read my_pred.(pid) = not_enqueued then begin
        (* Fresh attempt (or a retry that never enqueued): same node as
           any earlier retry of this passage, thanks to the stable
           parity. The FASAS is the commit point: it atomically swaps us
           into the tail AND persists the fetched predecessor, flipping
           the [my_pred] guard. *)
        let mine = (2 * pid) + Proc.read parity.(pid) in
        Proc.write my_node.(pid) mine;
        Proc.write node.(mine) 1;
        ignore (Proc.fasas tail mine ~save:my_pred.(pid))
      end;
      let pred = Proc.read my_pred.(pid) in
      ignore (Proc.await node.(pred) ~until:(fun v -> v = 0));
      Proc.write phase.(pid) have
    end
  in
  let exit ~pid ~epoch:_ =
    Proc.write phase.(pid) releasing;
    finish_exit ~pid
  in
  { Rme_intf.name = "rclh-fasas"; recover; enter; exit }
