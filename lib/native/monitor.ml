(* See monitor.mli. [held] is plain: each entry has a single writer, and
   [enter] stores it right after the occupancy increment with no
   crash-poll point in between (plain OCaml code cannot raise
   [Crash.Crashed]), so [abandon] releases exactly what was held. *)

type t = {
  occupancy : int Atomic.t array;
  me_violations : int Atomic.t;
  counter : int array;  (* deliberately plain: lost updates show *)
  completions : int Atomic.t array;
  held : int array;  (* pid's slot held at [pid * line], -1 = none *)
}

(* Words per cache line: each pid writes its [held] entry on every
   passage, so entries sit a line apart instead of false-sharing. *)
let line = 8

let create ~n ~slots =
  {
    occupancy = Array.init slots (fun _ -> Atomic.make 0);
    me_violations = Atomic.make 0;
    counter = Array.make slots 0;
    completions = Array.init slots (fun _ -> Atomic.make 0);
    held = Array.make ((n + 1) * line) (-1);
  }

let enter t ~pid ~slot =
  if Atomic.fetch_and_add t.occupancy.(slot) 1 <> 0 then
    ignore (Atomic.fetch_and_add t.me_violations 1);
  t.held.(pid * line) <- slot

let serve t ~slot =
  t.counter.(slot) <- t.counter.(slot) + 1;
  ignore (Atomic.fetch_and_add t.completions.(slot) 1)

let exit t ~pid ~slot =
  t.held.(pid * line) <- -1;
  ignore (Atomic.fetch_and_add t.occupancy.(slot) (-1))

let abandon t ~pid =
  let slot = t.held.(pid * line) in
  if slot >= 0 then exit t ~pid ~slot;
  slot

let me_violations t = Atomic.get t.me_violations
let counter t ~slot = t.counter.(slot)
let completions t = Array.map Atomic.get t.completions

let total_completions t =
  Array.fold_left (fun acc c -> acc + Atomic.get c) 0 t.completions

let lost_update_slots t =
  let bad = ref 0 in
  Array.iteri
    (fun s c -> if c <> Atomic.get t.completions.(s) then incr bad)
    t.counter;
  !bad
