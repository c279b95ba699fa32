open Sim

(** GetTag/SetTag (Fig. 2 lines 33-40, 59-61), transcribed once as a
    functor over the shared-memory {!Sim.Backend_intf.S} and instantiated
    per substrate. The simulated instantiation is included below; the
    native one lives in [Rme_native.Stack]. *)

module Make (B : Backend_intf.S) = struct
  type t = { e : B.cell array array (* e.(i).(0|1), homed at i *) }

  let create mem ~name =
    let n = B.n mem in
    let name = name ^ ".E" in
    let e =
      Array.init (n + 1) (fun i ->
          Array.init 2 (fun j -> B.cell mem ~name ~i ~j ~home:(Stdlib.max i 1) 0))
    in
    { e }

  (* GetTag, Fig. 2 lines 33-40. *)
  let get t ~epoch ~who =
    let e0 = B.read t.e.(who).(0) in
    let e1 = B.read t.e.(who).(1) in
    if e0 = epoch then 0
    else if e1 = epoch then 1
    else if e0 > e1 then 1
    else 0

  (* SetTag, Fig. 2 lines 59-61. *)
  let set t ~epoch ~pid =
    let tag = get t ~epoch ~who:pid in
    B.write t.e.(pid).(tag) epoch;
    tag
end

include Make (Backend)
