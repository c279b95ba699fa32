open Sim

(** BarrierSub, the known-leader recovery barrier (Fig. 1, Theorem 3.2):
    a CAS handshake row homed at the leader plus a distributed
    chain-signalling list, O(1) RMRs per process in the DSM model.

    Transcribed once as a functor over {!Sim.Backend_intf.S}; the
    simulated instantiation is included below, the native one lives in
    [Rme_native.Stack]. *)

module Make (B : Backend_intf.S) = struct
  type t = {
    mem : B.mem;
    n : int;
    fast_path : bool;
    r : B.cell;
    c : B.cell array array; (* c.(i).(j), row i homed at process i *)
    i : B.cell array array; (* positions: i.(lid).(j), homed at lid *)
    l : B.cell array array; (* waiter list: l.(lid).(k), homed at lid *)
    s : B.cell array; (* spin flags, s.(j) homed at j *)
  }

  let create ?(fast_path = true) mem ~name =
    let n = B.n mem in
    let matrix base =
      let name = name ^ "." ^ base in
      Array.init (n + 1) (fun i ->
          Array.init (n + 1) (fun j ->
              B.cell mem ~name ~i ~j ~home:(Stdlib.max i 1) 0))
    in
    let s_name = name ^ ".S" in
    {
      mem;
      n;
      fast_path;
      r = B.global mem ~name:(name ^ ".R") 0;
      c = matrix "C";
      i = matrix "I";
      l = matrix "L";
      s =
        Array.init (n + 1) (fun j ->
            B.cell mem ~name:s_name ~i:j ~home:(Stdlib.max j 1) 0);
    }

  (* BSub-Leader, Fig. 1 lines 7-16. Process [pid] is the leader; its
     handshake row c.(pid) is local, so the O(N) loop costs no RMRs in the
     DSM model. *)
  let leader t ~pid ~epoch =
    let k = ref 1 in
    for j = 1 to t.n do
      let tmp = B.read t.c.(pid).(j) in
      (* If p_j already swapped the epoch in, p_j won the handshake and will
         wait for a signal; record it in the signalling list. *)
      if B.cas t.c.(pid).(j) ~expect:tmp ~repl:epoch = epoch then begin
        B.write t.l.(pid).(!k) j;
        B.write t.i.(pid).(j) !k;
        incr k
      end
    done;
    if !k > 1 then begin
      let first = B.read t.l.(pid).(1) in
      B.write t.s.(first) epoch
    end

  (* BSub-NonLeader, Fig. 1 lines 17-24. The figure's line 17 reads
     [C[lid][j]]; the index must be [i] (the caller), as the surrounding
     text confirms. *)
  let non_leader t ~pid ~epoch ~lid =
    let tmp = B.read t.c.(lid).(pid) in
    if B.cas t.c.(lid).(pid) ~expect:tmp ~repl:epoch < epoch then begin
      (* Won the handshake: wait for the chain signal, then pass it on. A
         stale entry read from l.(lid) (left over from an earlier epoch) can
         only produce a harmless duplicate signal: S values are compared
         against the current epoch and epochs increase monotonically. *)
      ignore (B.await t.mem t.s.(pid) ~until:(fun v -> v = epoch));
      let k = B.read t.i.(lid).(pid) in
      if k < t.n then begin
        let succ = B.read t.l.(lid).(k + 1) in
        if succ <> 0 then B.write t.s.(succ) epoch
      end
    end

  let enter t ~pid ~epoch ~lid =
    (* Line 1: fast path once the barrier is open. *)
    if t.fast_path && B.read t.r = epoch then ()
    else if lid = pid then begin
      B.write t.r epoch;
      leader t ~pid ~epoch
    end
    else non_leader t ~pid ~epoch ~lid
end

include Make (Backend)
