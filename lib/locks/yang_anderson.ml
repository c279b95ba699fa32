open Sim

(* The two-process Yang–Anderson lock, instantiated at every internal node
   of an arbitration tree. Per node v: C.(v).(side) holds the ID of the
   process currently playing that side (0 = none) and T.(v) is the "turn"
   register (holds a process ID; the process that wrote it last loses a
   tie). Per process p and tree level l: the spin flag P.(p).(l) in
   {0 = reset, 1 = proceed-if-turn-allows, 2 = proceed}, homed at p so all
   busy-waiting is local in the DSM model.

   A process's path (and hence its node at each level) is fixed, so a stale
   P value left by a racing release is neutralized by the P := 0 reset at
   the start of the next entry at that level. Release walks the path
   top-down, keeping at most one process per node side at all times.

   Functorized over the shared-memory backend so that T1(YA) — the
   Θ(log N) read/write construction the paper's O(1) result is measured
   against — also runs natively. *)

module Make (B : Backend_intf.S) = struct
  let make mem =
    let n = B.n mem in
    let tree = Tree.make n in
    let nodes = Tree.internal_nodes tree in
    let depth = Tree.depth tree in
    let c =
      Array.init (nodes + 1) (fun v ->
          Array.init 2 (fun s -> B.global mem ~name:"ya.C" ~i:v ~j:s 0))
    in
    let t =
      Array.init (nodes + 1) (fun v -> B.global mem ~name:"ya.T" ~i:v 0)
    in
    let p =
      Array.init (n + 1) (fun pid ->
          Array.init (Stdlib.max depth 1) (fun l ->
              let home = Stdlib.max pid 1 in
              B.cell mem ~name:"ya.P" ~i:pid ~j:l ~home 0))
    in
    let paths =
      Array.init (n + 1) (fun q -> if q = 0 then [||] else Tree.path tree ~pid:q)
    in
    let entry2 ~pid ~level (v, s) =
      B.write c.(v).(s) pid;
      B.write t.(v) pid;
      B.write p.(pid).(level) 0;
      let rival = B.read c.(v).(1 - s) in
      if rival <> 0 && B.read t.(v) = pid then begin
        if B.read p.(rival).(level) = 0 then B.write p.(rival).(level) 1;
        ignore (B.await mem p.(pid).(level) ~until:(fun x -> x >= 1));
        if B.read t.(v) = pid then
          ignore (B.await mem p.(pid).(level) ~until:(fun x -> x = 2))
      end
    in
    let exit2 ~pid ~level (v, s) =
      B.write c.(v).(s) 0;
      let rival = B.read t.(v) in
      if rival <> pid then B.write p.(rival).(level) 2
    in
    {
      Lock_intf.name = "yang-anderson";
      enter =
        (fun ~pid ->
          Array.iteri (fun level vs -> entry2 ~pid ~level vs) paths.(pid));
      exit =
        (fun ~pid ->
          let path = paths.(pid) in
          for level = Array.length path - 1 downto 0 do
            exit2 ~pid ~level path.(level)
          done);
      reset =
        (fun ~pid:_ ->
          for v = 1 to nodes do
            B.write c.(v).(0) 0;
            B.write c.(v).(1) 0;
            B.write t.(v) 0
          done;
          for q = 1 to n do
            for l = 0 to depth - 1 do
              B.write p.(q).(l) 0
            done
          done);
    }
end

include Make (Backend)
