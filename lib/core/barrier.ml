open Sim

(** Barrier, the unknown-leader recovery barrier (Fig. 2, Theorem 3.3):
    a global spin in the CC model; in the DSM model a secondary-leader
    election through a tagged CAS object (the tag defeats ABA on the reset
    path) funnelling everyone through BarrierSub. O(1) RMRs per process in
    both models.

    Transcribed once as a functor over {!Sim.Backend_intf.S}. [B.model]
    decides which path runs, and so whether the election and BarrierSub
    are allocated at all (a CC barrier is the one register [R]): the
    simulator dispatches on the memory's cost model; the native backend
    picks [Cc] (the natural global spin on cache-coherent hardware) unless
    the distributed machinery is requested explicitly — running it
    natively is a differential test of the paper's most intricate code
    against real weak-memory interleavings. *)

module Make (B : Backend_intf.S) = struct
  module Tags = Tag.Make (B)
  module Sub = Barrier_sub.Make (B)

  type dsm = {
    fast_path : bool;
    c : B.cell; (* packed <id, tag> CAS object, see {!Sim.Encode} *)
    s : B.cell array; (* spin flags, s.(i) homed at i *)
    tags : Tags.t;
    sub : Sub.t;
  }

  type t = { mem : B.mem; r : B.cell; dsm : dsm option }

  let create ?(fast_path = true) mem ~name =
    let dsm =
      match B.model mem with
      | Memory.Cc -> None
      | Memory.Dsm ->
          (* Allocation order (sub, tags, S, C, then R below) is part of
             every DSM cell list and fingerprint. *)
          let n = B.n mem in
          let sub = Sub.create ~fast_path mem ~name:(name ^ ".sub") in
          let tags = Tags.create mem ~name:(name ^ ".tags") in
          let s_name = name ^ ".S" in
          let s =
            Array.init (n + 1) (fun i ->
                B.cell mem ~name:s_name ~i ~home:(Stdlib.max i 1) 0)
          in
          let c = B.global mem ~name:(name ^ ".C") Encode.bottom in
          Some { fast_path; c; s; tags; sub }
    in
    { mem; r = B.global mem ~name:(name ^ ".R") 0; dsm }

  (* BarrierCC, Fig. 2 lines 29-32. *)
  let enter_cc t ~pid:_ ~epoch ~leader =
    if leader then B.write t.r epoch
    else ignore (B.await t.mem t.r ~until:(fun v -> v = epoch))

  (* BarrierDSM, Fig. 2 lines 41-58. *)
  let enter_dsm t d ~pid ~epoch ~leader =
    (* Line 41 (the figure's ":=" is a typo for "="): fast path. *)
    if d.fast_path && B.read t.r = epoch then ()
    else begin
      (* Lines 42-45: lazily reset a stale secondary-leader announcement.
         The announcement is stale iff its tag differs from the tag its
         process holds (or would hold) in the current epoch — a current
         announcement always carries the current tag, and consecutive
         SetTag calls toggle it, so a delayed CAS can never clobber a fresh
         announcement (ABA). *)
      let cv = B.read d.c in
      if not (Encode.is_bottom cv) then begin
        let secldr = Encode.id_of cv and ltag = Encode.tag_of cv in
        if ltag <> Tags.get d.tags ~epoch ~who:secldr then
          ignore (B.cas d.c ~expect:cv ~repl:Encode.bottom)
      end;
      (* Line 46. *)
      let tag = Tags.set d.tags ~epoch ~pid in
      let secldr =
        if leader then begin
          (* Lines 47-52: open the barrier, then unblock whoever won the
             secondary election (possibly ourselves; the self-signal is
             harmless). *)
          B.write t.r epoch;
          let old = B.cas d.c ~expect:Encode.bottom ~repl:(Encode.pair ~id:pid ~tag) in
          let secldr = if Encode.is_bottom old then pid else Encode.id_of old in
          B.write d.s.(secldr) epoch;
          secldr
        end
        else begin
          (* Lines 53-57: try to become the secondary leader; the winner
             blocks until the real leader signals it. *)
          let old = B.cas d.c ~expect:Encode.bottom ~repl:(Encode.pair ~id:pid ~tag) in
          if Encode.is_bottom old then begin
            ignore (B.await t.mem d.s.(pid) ~until:(fun v -> v = epoch));
            pid
          end
          else Encode.id_of old
        end
      in
      (* Line 58: everyone meets at the secondary barrier. *)
      Sub.enter d.sub ~pid ~epoch ~lid:secldr
    end

  (* Barrier, Fig. 2 lines 25-28: dispatch on the cost model, whose DSM
     machinery exists iff the memory is DSM. *)
  let enter t ~pid ~epoch ~leader =
    match t.dsm with
    | None -> enter_cc t ~pid ~epoch ~leader
    | Some d -> enter_dsm t d ~pid ~epoch ~leader
end

include Make (Backend)
