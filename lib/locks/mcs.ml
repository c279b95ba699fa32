open Sim

(* Queue nodes are identified by process ID (1..n, 0 = nil). Node fields
   [next.(i)] and [locked.(i)] are homed at process i, so the entry-protocol
   spin on [locked.(pid)] is local.

   Transcribed once as a functor over the shared-memory backend — the
   base-lock exemplar for Transformation 1: the same code runs under the
   simulator's RMR accounting and natively over [Atomic]. *)

module Make (B : Backend_intf.S) = struct
  let make mem =
    let n = B.n mem in
    let dummy = B.global mem ~name:"mcs.unused" 0 in
    let field name i = if i = 0 then dummy else B.cell mem ~name ~i ~home:i 0 in
    let next = Array.init (n + 1) (field "mcs.next") in
    let locked = Array.init (n + 1) (field "mcs.locked") in
    let tail = B.global mem ~name:"mcs.tail" 0 in
    {
      Lock_intf.name = "mcs";
      enter =
        (fun ~pid ->
          B.write next.(pid) 0;
          let pred = B.fas tail pid in
          if pred <> 0 then begin
            (* Set the spin flag before linking so the predecessor's
               hand-off write cannot be lost. *)
            B.write locked.(pid) 1;
            B.write next.(pred) pid;
            ignore (B.await mem locked.(pid) ~until:(fun v -> v = 0))
          end);
      exit =
        (fun ~pid ->
          let succ = B.read next.(pid) in
          if succ = 0 then begin
            if not (B.cas_success tail ~expect:pid ~repl:0) then begin
              (* A successor is mid-enqueue: wait for it to link itself. *)
              let succ = B.await mem next.(pid) ~until:(fun v -> v <> 0) in
              B.write locked.(succ) 0
            end
          end
          else B.write locked.(succ) 0);
      reset = (fun ~pid:_ -> B.write tail 0);
    }
end

include Make (Backend)
