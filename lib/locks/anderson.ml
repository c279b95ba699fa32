open Sim

let make mem =
  let n = Memory.n mem in
  let slots =
    Array.init n (fun j ->
        Memory.global mem ~name:"anderson.slot" ~i:j (if j = 0 then 1 else 0))
  in
  let next = Memory.global mem ~name:"anderson.next" 0 in
  let my_slot = Array.make (n + 1) 0 in
  {
    Lock_intf.name = "anderson";
    enter =
      (fun ~pid ->
        let ticket = Proc.faa next 1 in
        let slot = ticket mod n in
        my_slot.(pid) <- slot;
        ignore (Proc.await slots.(slot) ~until:(fun v -> v = 1));
        (* Consume the grant so the slot can be reused a lap later. *)
        Proc.write slots.(slot) 0);
    exit = (fun ~pid -> Proc.write slots.((my_slot.(pid) + 1) mod n) 1);
    reset =
      (fun ~pid:_ ->
        for j = 0 to n - 1 do
          Proc.write slots.(j) (if j = 0 then 1 else 0)
        done;
        Proc.write next 0;
        Array.fill my_slot 0 (n + 1) 0);
  }
