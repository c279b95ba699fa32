open Sim

module Make (B : Backend_intf.S) = struct
  let make mem =
    let n = B.n mem in
    let next = B.global mem ~name:"ticket.next" 0 in
    let serving = B.global mem ~name:"ticket.serving" 0 in
    (* The held ticket is process-private state (wiped by a crash; reset
       by [reset], which runs before any post-crash entry). It is written
       before it is read in every passage, so a reset memory needs no
       [on_reset] for it. *)
    let my_ticket = Array.make (n + 1) 0 in
    {
      Lock_intf.name = "ticket";
      enter =
        (fun ~pid ->
          let t = B.faa next 1 in
          my_ticket.(pid) <- t;
          ignore (B.await mem serving ~until:(fun v -> v = t)));
      exit = (fun ~pid -> B.write serving (my_ticket.(pid) + 1));
      reset =
        (fun ~pid:_ ->
          B.write next 0;
          B.write serving 0;
          Array.fill my_ticket 0 (n + 1) 0);
    }
end

include Make (Backend)
