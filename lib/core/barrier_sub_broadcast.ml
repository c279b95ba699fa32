open Sim

(** Ablation of BarrierSub for E7(a): the leader signals every waiter
    itself instead of starting the chain signal — one {e remote} write per
    waiter, Θ(N) leader RMRs in the DSM model, which is exactly the cost
    the chain mechanism of Fig. 1 avoids. Functorized over
    {!Sim.Backend_intf.S} like the faithful modules. *)

module Make (B : Backend_intf.S) = struct
  type t = {
    mem : B.mem;
    n : int;
    fast_path : bool;
    r : B.cell;
    c : B.cell array array; (* handshake row c.(i), homed at process i *)
    s : B.cell array; (* spin flags, s.(j) homed at j *)
  }

  let create ?(fast_path = true) mem ~name =
    let n = B.n mem in
    let c_name = name ^ ".C" and s_name = name ^ ".S" in
    {
      mem;
      n;
      fast_path;
      r = B.global mem ~name:(name ^ ".R") 0;
      c =
        Array.init (n + 1) (fun i ->
            Array.init (n + 1) (fun j ->
                B.cell mem ~name:c_name ~i ~j ~home:(Stdlib.max i 1) 0));
      s =
        Array.init (n + 1) (fun j ->
            B.cell mem ~name:s_name ~i:j ~home:(Stdlib.max j 1) 0);
    }

  let leader t ~pid ~epoch =
    for j = 1 to t.n do
      let tmp = B.read t.c.(pid).(j) in
      if B.cas t.c.(pid).(j) ~expect:tmp ~repl:epoch = epoch then
        (* p_j won the handshake and is (or will be) waiting: signal it
           directly — a remote write per waiter, the cost the chain
           mechanism avoids. *)
        B.write t.s.(j) epoch
    done

  let non_leader t ~pid ~epoch ~lid =
    let tmp = B.read t.c.(lid).(pid) in
    if B.cas t.c.(lid).(pid) ~expect:tmp ~repl:epoch < epoch then
      ignore (B.await t.mem t.s.(pid) ~until:(fun v -> v = epoch))

  let enter t ~pid ~epoch ~lid =
    if t.fast_path && B.read t.r = epoch then ()
    else if lid = pid then begin
      B.write t.r epoch;
      leader t ~pid ~epoch
    end
    else non_leader t ~pid ~epoch ~lid
end

include Make (Backend)
