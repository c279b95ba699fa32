open Sim

(* Nodes are cells [node.(0 .. n)]: value 1 = "holder/waiter present",
   0 = "released". [node.(0)] is the initial dummy (released). Each process
   recycles its predecessor's node on exit, preserving the invariant that
   the [my_node] values plus the queue chain form a permutation of nodes. *)
let make mem =
  let n = Memory.n mem in
  let node =
    Array.init (n + 1) (fun j ->
        Memory.cell mem ~name:"clh.node" ~i:j ~home:(Stdlib.max j 1) 0)
  in
  let tail = Memory.global mem ~name:"clh.tail" 0 in
  let my_node = Array.init (n + 1) (fun i -> i) in
  let my_pred = Array.make (n + 1) 0 in
  {
    Lock_intf.name = "clh";
    enter =
      (fun ~pid ->
        let mine = my_node.(pid) in
        Proc.write node.(mine) 1;
        let pred = Proc.fas tail mine in
        my_pred.(pid) <- pred;
        ignore (Proc.await node.(pred) ~until:(fun v -> v = 0)));
    exit =
      (fun ~pid ->
        Proc.write node.(my_node.(pid)) 0;
        my_node.(pid) <- my_pred.(pid));
    reset =
      (fun ~pid:_ ->
        for j = 0 to n do
          Proc.write node.(j) 0
        done;
        Proc.write tail 0;
        Array.iteri (fun i _ -> my_node.(i) <- i) my_node);
  }
