open Sim

(** Transformations 2 and 3 (Fig. 4; Theorems 4.9, 4.11): RME → RME with
    Critical Section Re-entry (black lines, [~helping:false]), and CSR RME
    → CSR + Failures-Robust Fair RME via recovery-time helping (gray
    lines, [~helping:true]). [~csr:false] gives the footnote-3 FRF-only
    variant. The single transcription, functorized over
    {!Sim.Backend_intf.S}. *)

module Make (B : Backend_intf.S) = struct
  module Bar = Barrier.Make (B)

  let make ?fast_path ?(literal_line97 = false) ?(csr = true) ~helping mem
      ~(base : Rme_intf.rme) =
    let n = B.n mem in
    let name =
      (if csr then if helping then "t3(" else "t2(" else "frf(")
      ^ base.Rme_intf.name ^ ")"
    in
    let g cell_name init = B.global mem ~name:(name ^ "." ^ cell_name) init in
    (* inCSpid: 0 = free; i = p_i entered normally; -i = p_i is re-entering
       after crashing inside the CS. *)
    let in_cs_pid = g "inCSpid" 0 in
    let in_cs_epoch = g "inCSepoch" 0 in
    let br1 = Bar.create ?fast_path mem ~name:(name ^ ".BR1") in
    let br2 = Bar.create ?fast_path mem ~name:(name ^ ".BR2") in
    let h =
      let name = name ^ ".h" in
      Array.init (n + 1) (fun i -> B.cell mem ~name ~i ~home:(Stdlib.max i 1) 0)
    in
    let h_ind = g "hInd" 1 in
    let h_epoch = g "hEpoch" 0 in

    (* Recover, Fig. 4 lines 75-86. *)
    let recover ~pid ~epoch =
      base.Rme_intf.recover ~pid ~epoch;
      let owner = B.read in_cs_pid in
      if csr && (owner = pid || owner = -pid) then
        (* Lines 76-77: we crashed in (or dangerously near) the CS; proceed
           straight to the entry protocol for unimpeded re-entry. *)
        ()
      else begin
        if csr && owner <> 0 then
          (* Lines 78-80: someone else owns the CS. If its entry predates
             the current epoch it must be allowed to re-enter first. *)
          if B.read in_cs_epoch <> epoch then
            Bar.enter br1 ~pid ~epoch ~leader:false;
        if helping then begin
          (* Lines 81-86 (Transformation 3): give way to the epoch's
             privileged process, unless it is also the CS re-enterer (the
             CSR code already protects it). *)
          if B.read h_epoch <> epoch then begin
            let hi = B.read h_ind in
            let privileged = abs hi in
            if B.read h.(privileged) = 1 then begin
              let owner = B.read in_cs_pid in
              if abs owner <> privileged then
                if privileged = pid then
                  (* Lines 82-84: we are privileged; remember to open BR2
                     from the entry protocol. *)
                  B.write h_ind (-pid)
                else Bar.enter br2 ~pid ~epoch ~leader:false
            end
          end
        end
      end
    in

    (* Enter, Fig. 4 lines 87-99. Lines 89-99 execute while holding the
       base mutex, so in a failure-free period they are mutually
       exclusive. *)
    let enter ~pid ~epoch =
      B.write h.(pid) 1;
      base.Rme_intf.enter ~pid ~epoch;
      B.write in_cs_epoch epoch;
      let owner = B.read in_cs_pid in
      if owner = pid || owner = -pid then B.write in_cs_pid (-pid)
      else B.write in_cs_pid pid;
      (* Line 94: logically in the CS from here; re-entry now guarantees
         progress even if the help flag is cleared. *)
      B.write h.(pid) 0;
      if helping then
        (* Lines 95-99: advance the helping round — unless we are a CS
           re-enterer and a different privileged process still needs help
           (it will be the next to enter and will advance the round
           itself). *)
        if B.read h_epoch <> epoch then begin
          let owner = B.read in_cs_pid in
          let hi = B.read h_ind in
          let skip =
            owner < 0 && abs owner <> abs hi && B.read h.(abs hi) = 1
          in
          if not skip then begin
            B.write h_epoch epoch;
            (* Liveness fix to the published pseudo-code (line 97): open
               BR2 whenever the helping round advances, not only when the
               privileged process marked itself at line 83. Otherwise a
               recovering process that reads [hEpoch <> epoch] and catches
               a normal entrant's help flag mid-entry (set at line 87,
               cleared at 94) parks at BR2 at line 86, and with [hInd]
               still positive no one would ever open it in this epoch — a
               failure-free deadlock our model checker reproduces (see
               [Transformations.literal_line97_wedges] in the tests). An
               unconditional open is harmless: lines 95-99 run at most
               once per epoch (they hold the base mutex and [hEpoch] is
               published before release), so the barrier still has a
               unique leader. *)
            if (not literal_line97) || hi < 0 then
              Bar.enter br2 ~pid ~epoch ~leader:true;
            B.write h_ind ((abs hi mod n) + 1)
          end
        end
    in

    (* Exit, Fig. 4 lines 100-105. *)
    let exit ~pid ~epoch =
      if csr && B.read in_cs_pid = -pid then begin
        (* We were re-entering: release the processes barricaded at BR1. *)
        B.write in_cs_pid 0;
        Bar.enter br1 ~pid ~epoch ~leader:true
      end
      else B.write in_cs_pid 0;
      base.Rme_intf.exit ~pid ~epoch
    in
    { Rme_intf.name; recover; enter; exit }

  let csr ?fast_path mem ~base = make ?fast_path ~helping:false mem ~base

  let csr_frf ?fast_path mem ~base = make ?fast_path ~helping:true mem ~base

  let csr_frf_literal mem ~base =
    make ~literal_line97:true ~helping:true mem ~base

  let frf_only ?fast_path mem ~base =
    make ?fast_path ~csr:false ~helping:true mem ~base
end

include Make (Backend)
