(** Pre-assembled native lock stacks: the {e same} single transcriptions
    as {!Rme.Stack} (the lib/core and lib/locks functors), instantiated
    over the native {!Backend} instead of the simulator. Registry keys
    match the simulated registry one-for-one — [test/test_differential.ml]
    asserts the parity, so a future lock cannot be added to one side
    only. *)

module Mcs = Locks.Mcs.Make (Backend)
module Ticket = Locks.Ticket.Make (Backend)
module Ttas = Locks.Ttas.Make (Backend)
module Ya = Locks.Yang_anderson.Make (Backend)
module T1 = Rme.Transform1.Make (Backend)
module T1_spin = Rme.Transform1_spin.Make (Backend)
module T23 = Rme.Transform23.Make (Backend)
module Jjj_cc = Rme.Jjj_cc.Make (Backend)
module Jjj_dsm = Rme.Jjj_dsm.Make (Backend)

let conventional_table : (string * (Backend.mem -> Intf.mutex)) list =
  [
    ("mcs", Mcs.make);
    ("ya", Ya.make);
    ("ttas", Ttas.make);
    ("ticket", Ticket.make);
  ]

let conventional_names = List.map fst conventional_table

let conventional ?model ?padded crash ~n which : Intf.mutex =
  let mem = Backend.create ?model ?padded crash ~n in
  match List.assoc_opt which conventional_table with
  | Some make -> make mem
  | None -> invalid_arg ("Stack.conventional: unknown lock " ^ which)

let recoverable_table : (string * (Backend.mem -> Intf.rme)) list =
  let t1_mcs mem = T1.make mem ~base:(Mcs.make mem) in
  let t1_mcs_nofast mem = T1.make ~fast_path:false mem ~base:(Mcs.make mem) in
  [
    ("t1-mcs", t1_mcs);
    ("t1-ya", fun mem -> T1.make mem ~base:(Ya.make mem));
    ("t1-ticket", fun mem -> T1.make mem ~base:(Ticket.make mem));
    ("t2-mcs", fun mem -> T23.csr mem ~base:(t1_mcs mem));
    ("t3-mcs", fun mem -> T23.csr_frf mem ~base:(t1_mcs mem));
    ("frf-mcs", fun mem -> T23.frf_only mem ~base:(t1_mcs mem));
    ("jjj-cc", Jjj_cc.make);
    ("jjj-dsm", Jjj_dsm.make);
    ("t1spin-mcs", fun mem -> T1_spin.make mem ~base:(Mcs.make mem));
    ("t1-mcs-nofast", t1_mcs_nofast);
    ( "t3-mcs-nofast",
      fun mem -> T23.csr_frf ~fast_path:false mem ~base:(t1_mcs_nofast mem) );
  ]

let recoverable_names = List.map fst recoverable_table

(* The simulated-registry names this registry claims to port. Every native
   stack is an instantiation of the same transcription the simulated
   registry builds, so the claim is total; the parity test pins it.
   Sim-only residents stay sim-only deliberately. [t3-mcs-literal] has a
   genuine — model-checker-reproducible — failure-free deadlock that would
   wedge a native domain. [rclh-fasas]/[rtas] are the comparison class
   outside the paper's construction. The conventional [tas] is a bare CAS
   loop with no [await], so natively it would never poll the crash flag:
   a domain spinning in it could not be stopped by a crash. *)
let ported_names = recoverable_names @ conventional_names

let recoverable ?model ?padded crash ~n which : Intf.rme =
  let mem = Backend.create ?model ?padded crash ~n in
  match List.assoc_opt which recoverable_table with
  | Some make -> make mem
  | None -> invalid_arg ("Stack.recoverable: unknown stack " ^ which)
