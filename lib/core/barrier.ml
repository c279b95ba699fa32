open Sim

(** Barrier, the unknown-leader recovery barrier (Fig. 2, Theorem 3.3):
    a global spin in the CC model; in the DSM model a secondary-leader
    election through a tagged CAS object (the tag defeats ABA on the reset
    path) funnelling everyone through BarrierSub. O(1) RMRs per process in
    both models.

    Transcribed once as a functor over {!Sim.Backend_intf.S}. Which path
    runs is decided by [B.model]: the simulator dispatches on the memory's
    cost model; the native backend picks [Cc] (the natural global spin on
    cache-coherent hardware) unless the distributed machinery is requested
    explicitly — running it natively is a differential test of the paper's
    most intricate code against real weak-memory interleavings. *)

module Make (B : Backend_intf.S) = struct
  module Tags = Tag.Make (B)
  module Sub = Barrier_sub.Make (B)

  type t = {
    mem : B.mem;
    model : Memory.model;
    fast_path : bool;
    r : B.cell;
    c : B.cell; (* packed <id, tag> CAS object, see {!Sim.Encode} *)
    s : B.cell array; (* spin flags, s.(i) homed at i *)
    tags : Tags.t;
    sub : Sub.t;
  }

  let create ?(fast_path = true) mem ~name =
    let n = B.n mem in
    let s_name = name ^ ".S" in
    {
      mem;
      model = B.model mem;
      fast_path;
      r = B.global mem ~name:(name ^ ".R") 0;
      c = B.global mem ~name:(name ^ ".C") Encode.bottom;
      s =
        Array.init (n + 1) (fun i ->
            B.cell mem ~name:s_name ~i ~home:(Stdlib.max i 1) 0);
      tags = Tags.create mem ~name:(name ^ ".tags");
      sub = Sub.create ~fast_path mem ~name:(name ^ ".sub");
    }

  (* BarrierCC, Fig. 2 lines 29-32. *)
  let enter_cc t ~pid:_ ~epoch ~leader =
    if leader then B.write t.r epoch
    else ignore (B.await t.mem t.r ~until:(fun v -> v = epoch))

  (* BarrierDSM, Fig. 2 lines 41-58. *)
  let enter_dsm t ~pid ~epoch ~leader =
    (* Line 41 (the figure's ":=" is a typo for "="): fast path. *)
    if t.fast_path && B.read t.r = epoch then ()
    else begin
      (* Lines 42-45: lazily reset a stale secondary-leader announcement.
         The announcement is stale iff its tag differs from the tag its
         process holds (or would hold) in the current epoch — a current
         announcement always carries the current tag, and consecutive
         SetTag calls toggle it, so a delayed CAS can never clobber a fresh
         announcement (ABA). *)
      let cv = B.read t.c in
      if not (Encode.is_bottom cv) then begin
        let secldr = Encode.id_of cv and ltag = Encode.tag_of cv in
        if ltag <> Tags.get t.tags ~epoch ~who:secldr then
          ignore (B.cas t.c ~expect:cv ~repl:Encode.bottom)
      end;
      (* Line 46. *)
      let tag = Tags.set t.tags ~epoch ~pid in
      let secldr =
        if leader then begin
          (* Lines 47-52: open the barrier, then unblock whoever won the
             secondary election (possibly ourselves; the self-signal is
             harmless). *)
          B.write t.r epoch;
          let old = B.cas t.c ~expect:Encode.bottom ~repl:(Encode.pair ~id:pid ~tag) in
          let secldr = if Encode.is_bottom old then pid else Encode.id_of old in
          B.write t.s.(secldr) epoch;
          secldr
        end
        else begin
          (* Lines 53-57: try to become the secondary leader; the winner
             blocks until the real leader signals it. *)
          let old = B.cas t.c ~expect:Encode.bottom ~repl:(Encode.pair ~id:pid ~tag) in
          if Encode.is_bottom old then begin
            ignore (B.await t.mem t.s.(pid) ~until:(fun v -> v = epoch));
            pid
          end
          else Encode.id_of old
        end
      in
      (* Line 58: everyone meets at the secondary barrier. *)
      Sub.enter t.sub ~pid ~epoch ~lid:secldr
    end

  (* Barrier, Fig. 2 lines 25-28: dispatch on the cost model. *)
  let enter t ~pid ~epoch ~leader =
    match t.model with
    | Memory.Cc -> enter_cc t ~pid ~epoch ~leader
    | Memory.Dsm -> enter_dsm t ~pid ~epoch ~leader
end

include Make (Backend)
