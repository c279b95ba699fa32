open Sim

let make mem =
  let n = Memory.n mem in
  let tree = Tree.make n in
  let nodes = Tree.internal_nodes tree in
  let var name i j init = Memory.global mem ~name ~i ~j init in
  (* flag.(v).(s): side s competes at node v; turn.(v).(0): whose turn it is
     to wait. Node index 0 is unused padding. *)
  let flag =
    Array.init (nodes + 1) (fun v -> Array.init 2 (fun s -> var "peterson.flag" v s 0))
  in
  let turn = Array.init (nodes + 1) (fun v -> var "peterson.turn" v 0 0) in
  let paths = Array.init (n + 1) (fun p -> if p = 0 then [||] else Tree.path tree ~pid:p) in
  let enter2 (v, s) =
    let rival = 1 - s in
    Proc.write flag.(v).(s) 1;
    Proc.write turn.(v) rival;
    ignore
      (Proc.await2 flag.(v).(rival) turn.(v) ~until:(fun f t ->
           not (f = 1 && t = rival)))
  in
  let exit2 (v, s) = Proc.write flag.(v).(s) 0 in
  {
    Lock_intf.name = "peterson-tree";
    enter = (fun ~pid -> Array.iter enter2 paths.(pid));
    exit =
      (fun ~pid ->
        let p = paths.(pid) in
        for l = Array.length p - 1 downto 0 do
          exit2 p.(l)
        done);
    reset =
      (fun ~pid:_ ->
        for v = 1 to nodes do
          Proc.write flag.(v).(0) 0;
          Proc.write flag.(v).(1) 0;
          Proc.write turn.(v) 0
        done);
  }
