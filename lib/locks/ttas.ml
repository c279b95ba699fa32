open Sim

module Make (B : Backend_intf.S) = struct
  let make mem =
    let flag = B.global mem ~name:"ttas.flag" 0 in
    let rec acquire () =
      ignore (B.await mem flag ~until:(fun v -> v = 0));
      if not (B.cas_success flag ~expect:0 ~repl:1) then acquire ()
    in
    {
      Lock_intf.name = "ttas";
      enter = (fun ~pid:_ -> acquire ());
      exit = (fun ~pid:_ -> B.write flag 0);
      reset = (fun ~pid:_ -> B.write flag 0);
    }
end

include Make (Backend)
