open Sim

let make mem =
  let n = Memory.n mem in
  let cell name i = Memory.cell mem ~name ~i ~home:(Stdlib.max i 1) 0 in
  let choosing = Array.init (n + 1) (cell "bakery.choosing") in
  let number = Array.init (n + 1) (cell "bakery.number") in
  (* Lexicographic priority: lower (ticket, pid) wins. *)
  let has_priority ~mine ~pid other_number j =
    other_number = 0 || (other_number, j) > (mine, pid)
  in
  {
    Lock_intf.name = "bakery";
    enter =
      (fun ~pid ->
        Proc.write choosing.(pid) 1;
        let max_no = ref 0 in
        for j = 1 to n do
          let v = Proc.read number.(j) in
          if v > !max_no then max_no := v
        done;
        let mine = !max_no + 1 in
        Proc.write number.(pid) mine;
        Proc.write choosing.(pid) 0;
        for j = 1 to n do
          if j <> pid then begin
            ignore (Proc.await choosing.(j) ~until:(fun v -> v = 0));
            ignore
              (Proc.await number.(j) ~until:(fun v ->
                   has_priority ~mine ~pid v j))
          end
        done);
    exit = (fun ~pid -> Proc.write number.(pid) 0);
    reset =
      (fun ~pid:_ ->
        for j = 1 to n do
          Proc.write choosing.(j) 0;
          Proc.write number.(j) 0
        done);
  }
