(* A process's slot: in the NCS, finished, or suspended at a
   shared-memory operation. One suspension constructor per {!Proc}
   effect: [advance] dispatches straight to the matching {!Memory} fast
   path with the operands in registers — no [Memory.op] is ever built on
   the no-tracer path. All memory suspensions resume with [int] ([Write]
   included; the value is discarded by [Proc.write]). The slots array
   stores a status directly, and [Fresh]/[Finished] are constant
   constructors, so settling a step allocates nothing beyond the
   suspension the effect handler built. *)
type status =
  | Fresh  (** in the NCS; body not started in the current epoch *)
  | Finished  (** body returned; stays done until the next crash *)
  | Sus_read of Memory.cell * (int, status) Effect.Deep.continuation
  | Sus_write of Memory.cell * int * (int, status) Effect.Deep.continuation
  | Sus_cas of
      Memory.cell * int * int * (int, status) Effect.Deep.continuation
  | Sus_fas of Memory.cell * int * (int, status) Effect.Deep.continuation
  | Sus_faa of Memory.cell * int * (int, status) Effect.Deep.continuation
  | Sus_fasas of
      Memory.cell * int * Memory.cell * (int, status) Effect.Deep.continuation
  | Sus_await of
      Memory.cell * (int -> bool) * (int, status) Effect.Deep.continuation
  | Sus_await2 of
      Memory.cell
      * Memory.cell
      * (int -> int -> bool)
      * (int * int, status) Effect.Deep.continuation

(* Injectable-fault state ({!Scenario}'s failure schedules), allocated
   lazily by the first injection so fault-free runs keep [t.faults =
   None] and every hot path pays exactly one physical-equality check —
   the digest math, schedules and golden trace stay byte-identical to
   the fault-free engine.

   Lost wakeup: [susp.(pid)] marks a pending await whose wakeup was
   dropped. The process reports as spin-blocked even if its condition
   holds, until the watched cell's value {e changes} from the one
   recorded at injection (a fresh write re-delivers the signal), the
   process crashes, or it is explicitly stepped (a spurious re-check).

   Delayed visibility: [armed.(pid) >= 0] diverts pid's next plain write
   into a one-slot store buffer for that many clock ticks. While
   buffered, the write is invisible to every process — pid included: its
   own next shared-memory operation drains the buffer first, like a
   fence, so it can never read its own stale past. A system-wide crash
   (and an independent crash of pid) DISCARDS the buffer: the write
   never reached persistence, which is exactly the delayed-NVRAM-
   visibility failure the paper's model abstracts away. *)
type faults = {
  susp : bool array; (* 1-based, like every per-process array here *)
  susp_cell : Memory.cell option array;
  susp_v : int array;
  susp_cell2 : Memory.cell option array;
  susp_v2 : int array;
  armed : int array; (* -1 = unarmed; else the visibility window *)
  buf_cell : Memory.cell option array;
  buf_v : int array;
  buf_due : int array;
}

type t = {
  mem : Memory.t;
  n : int;
  body : pid:int -> epoch:int -> unit;
  slots : status array; (* 1-based; index 0 unused *)
  live : Bitset.t; (* the pids whose slot is not [Finished] *)
  initial_epoch : int; (* what {!reset} restores [epoch] to *)
  mutable epoch : int;
  mutable clock : int;
  mutable crashes : int;
  mutable crash_hooks : (epoch:int -> unit) list;
  mutable crash_one_hooks : (pid:int -> unit) list;
  (* Per-process local-state signature: a hash of the sequence of values
     the fiber has consumed since it (re)started in the current epoch.
     The body is a deterministic function of (pid, epoch, consumed
     values), so equal signatures — same pid, same epoch — mean the
     fibers are at the same control point with the same private state.
     Failed awaits consume nothing (the fiber does not advance), so they
     leave the signature unchanged. Plain bookkeeping: no B.* operation,
     no effect on schedules, RMR accounting or the golden trace. *)
  local_sig : int array; (* 1-based; index 0 unused *)
  (* Incremental control-state digest: xor over processes of
     [Encode.mix (Encode.mix zp.(pid) slot_tag) local_sig.(pid)], with
     [zp.(pid)] the process's precomputed Zobrist key. [step] brackets
     each step with an xor-out/xor-in of the stepped process's
     contribution; a system-wide crash resets every contribution at
     once to the precomputed [fresh_fp]. Like {!Memory.fingerprint},
     maintenance starts lazily at the first [fingerprint] call
     (DESIGN.md §5.14). *)
  zp : int array;
  fresh_fp : int;
  mutable fp : int;
  mutable fp_live : bool;
  mutable faults : faults option;
  (* The handler every fiber of this runtime runs under. Its [effc]
     takes the suspended fiber's next step on the spot, without
     returning to the caller, while [budget] lasts: [running] is the pid
     being stepped and [budget] the steps it may still take (see
     [again]). Once [budget] is below [halt_below], [again] also stops
     before an await whose condition fails; 0 turns that off. *)
  handler : (unit, status) Effect.Deep.handler;
  mutable running : int;
  mutable budget : int;
  mutable halt_below : int;
}

(* --- injectable faults --- *)

let get_faults t =
  match t.faults with
  | Some f -> f
  | None ->
    let f =
      {
        susp = Array.make (t.n + 1) false;
        susp_cell = Array.make (t.n + 1) None;
        susp_v = Array.make (t.n + 1) 0;
        susp_cell2 = Array.make (t.n + 1) None;
        susp_v2 = Array.make (t.n + 1) 0;
        armed = Array.make (t.n + 1) (-1);
        buf_cell = Array.make (t.n + 1) None;
        buf_v = Array.make (t.n + 1) 0;
        buf_due = Array.make (t.n + 1) 0;
      }
    in
    t.faults <- Some f;
    f

let clear_susp f pid =
  f.susp.(pid) <- false;
  f.susp_cell.(pid) <- None;
  f.susp_cell2.(pid) <- None

(* A suppressed await stays lost only while the watched value(s) still
   equal the ones recorded at injection: any later write that changes a
   watched cell models a fresh signal, which re-delivers the wakeup. *)
let watch_unchanged f pid =
  (match f.susp_cell.(pid) with
  | Some c -> Memory.peek c = f.susp_v.(pid)
  | None -> true)
  && match f.susp_cell2.(pid) with
     | Some c -> Memory.peek c = f.susp_v2.(pid)
     | None -> true

let flush_buf t f pid =
  match f.buf_cell.(pid) with
  | None -> ()
  | Some c ->
    f.buf_cell.(pid) <- None;
    ignore (Memory.exec_write t.mem ~pid c f.buf_v.(pid))

let clear_faults_of t pid =
  match t.faults with
  | None -> ()
  | Some f ->
    clear_susp f pid;
    f.armed.(pid) <- -1;
    f.buf_cell.(pid) <- None (* the buffered write is LOST, not flushed *)

(* Housekeeping executed before each step: publish store buffers whose
   visibility window has elapsed, and retire suppressions whose watched
   cell has been re-signalled. Deterministic in the decision sequence. *)
let fault_tick t =
  match t.faults with
  | None -> ()
  | Some f ->
    for pid = 1 to t.n do
      (match f.buf_cell.(pid) with
      | Some _ when t.clock >= f.buf_due.(pid) -> flush_buf t f pid
      | Some _ | None -> ());
      if f.susp.(pid) && not (watch_unchanged f pid) then clear_susp f pid
    done

let memory t = t.mem
let n t = t.n
let epoch t = t.epoch
let clock t = t.clock
let crashes t = t.crashes

let runnable t pid =
  pid >= 1 && pid <= t.n
  &&
  match t.slots.(pid) with
  | Finished -> false
  | Fresh | Sus_read _ | Sus_write _ | Sus_cas _ | Sus_fas _ | Sus_faa _
  | Sus_fasas _ | Sus_await _ | Sus_await2 _ ->
    true

let runnable_set t = t.live

(* A process is spin-blocked if its pending operation is an await whose
   condition does not currently hold: stepping it re-reads the cell(s) but
   cannot change any value, so it is unproductive until someone writes. *)
let suppressed t pid =
  match t.faults with
  | None -> false
  | Some f -> f.susp.(pid) && watch_unchanged f pid

let parked_blocked = function
  | Sus_await (c, pred, _) -> not (pred (Memory.peek c))
  | Sus_await2 (c1, c2, pred, _) -> not (pred (Memory.peek c1) (Memory.peek c2))
  | Fresh | Finished | Sus_read _ | Sus_write _ | Sus_cas _ | Sus_fas _
  | Sus_faa _ | Sus_fasas _ ->
    false

let blocked t pid = suppressed t pid || parked_blocked t.slots.(pid)

let blocked_on t pid =
  match t.slots.(pid) with
  | Sus_await (c, pred, _) ->
    if pred (Memory.peek c) && not (suppressed t pid) then None
    else Some (Memory.name c)
  | Sus_await2 (c1, c2, pred, _) ->
    if pred (Memory.peek c1) (Memory.peek c2) && not (suppressed t pid) then
      None
    else Some (Memory.name c1 ^ "+" ^ Memory.name c2)
  | Fresh | Finished | Sus_read _ | Sus_write _ | Sus_cas _ | Sus_fas _
  | Sus_faa _ | Sus_fasas _ ->
    None

let enabled t =
  let rec collect pid acc =
    if pid < 1 then acc
    else collect (pid - 1) (if runnable t pid then pid :: acc else acc)
  in
  collect t.n []

let all_done t = Bitset.is_empty t.live

(* Top-level rather than a closure in [advance], which would allocate
   one on every step. *)
let[@inline] consume t pid v = t.local_sig.(pid) <- Encode.mix t.local_sig.(pid) v

(* The fiber of [t.running] is parked at [st]. While the budget lasts,
   take its next step right here — a clock tick, then [advance] — and
   hand back whatever the fiber parks at once the budget is spent (or
   [Finished]); with no budget left, hand back [st] itself. Past the
   first step of a {!step_productive} ([budget < halt_below]) it also
   hands back an [st] that is blocked. Called from [effc], on the
   handler's own stack: [again], [advance] and the [continue] inside it
   are all tail calls, so a run of consecutive steps resumes the fiber
   without returning to the caller and without growing the stack. *)
let rec again t st =
  if t.budget = 0 || (t.budget < t.halt_below && parked_blocked st) then st
  else begin
    t.budget <- t.budget - 1;
    t.clock <- t.clock + 1;
    advance t st
  end

(* The one op dispatch: executes [t.running]'s pending operation and
   resumes the fiber with its result. An await whose condition fails
   keeps the same continuation — the read was charged, the process stays
   put — and goes back to [again] for the next step. *)
and advance t st =
  let pid = t.running in
  (* A held store buffer drains before any further operation by its
     owner (fence semantics): the process can never observe shared
     memory ahead of its own unpublished write. *)
  (match t.faults with
  | Some f -> ( match f.buf_cell.(pid) with Some _ -> flush_buf t f pid | None -> ())
  | None -> ());
  match st with
  | Fresh | Finished -> st
  | Sus_read (c, k) ->
    let v = Memory.exec_read t.mem ~pid c in
    consume t pid v;
    Effect.Deep.continue k v
  | Sus_write (c, v, k) -> (
    match t.faults with
    | Some f when f.armed.(pid) >= 0 ->
      (* Delayed visibility: park the write in the store buffer. The
         fiber proceeds as if it wrote (same consumed value, same
         continuation), but shared memory — and its RMR accounting —
         is untouched until the buffer flushes. *)
      f.buf_cell.(pid) <- Some c;
      f.buf_v.(pid) <- v;
      f.buf_due.(pid) <- t.clock + f.armed.(pid);
      f.armed.(pid) <- -1;
      consume t pid v;
      Effect.Deep.continue k v
    | _ ->
      let v = Memory.exec_write t.mem ~pid c v in
      consume t pid v;
      Effect.Deep.continue k v)
  | Sus_cas (c, expect, repl, k) ->
    let v = Memory.exec_cas t.mem ~pid c ~expect ~repl in
    consume t pid v;
    Effect.Deep.continue k v
  | Sus_fas (c, v, k) ->
    let v = Memory.exec_fas t.mem ~pid c v in
    consume t pid v;
    Effect.Deep.continue k v
  | Sus_faa (c, d, k) ->
    let v = Memory.exec_faa t.mem ~pid c d in
    consume t pid v;
    Effect.Deep.continue k v
  | Sus_fasas (c, v, dst, k) ->
    let v = Memory.exec_fasas t.mem ~pid c v ~dst in
    consume t pid v;
    Effect.Deep.continue k v
  | Sus_await (c, pred, k) ->
    let v = Memory.exec_read t.mem ~pid c in
    if pred v then begin
      consume t pid v;
      Effect.Deep.continue k v
    end
    else again t st
  | Sus_await2 (c1, c2, pred, k) ->
    let v1 = Memory.exec_read t.mem ~pid c1 in
    let v2 = Memory.exec_read t.mem ~pid c2 in
    if pred v1 v2 then begin
      consume t pid v1;
      consume t pid v2;
      Effect.Deep.continue k (v1, v2)
    end
    else again t st

(* Every effect parks the fiber in its suspension and goes straight to
   [again]. *)
let effc (type a) t (eff : a Effect.t) :
    ((a, status) Effect.Deep.continuation -> status) option =
  match eff with
  | Proc.Read c -> Some (fun k -> again t (Sus_read (c, k)))
  | Proc.Write (c, v) -> Some (fun k -> again t (Sus_write (c, v, k)))
  | Proc.Cas (c, expect, repl) ->
    Some (fun k -> again t (Sus_cas (c, expect, repl, k)))
  | Proc.Fas (c, v) -> Some (fun k -> again t (Sus_fas (c, v, k)))
  | Proc.Faa (c, d) -> Some (fun k -> again t (Sus_faa (c, d, k)))
  | Proc.Fasas (c, v, dst) -> Some (fun k -> again t (Sus_fasas (c, v, dst, k)))
  | Proc.Await_one (c, pred) -> Some (fun k -> again t (Sus_await (c, pred, k)))
  | Proc.Await_two (c1, c2, pred) ->
    Some (fun k -> again t (Sus_await2 (c1, c2, pred, k)))
  | _ -> None

let crashed = function Proc.Crashed -> Finished | e -> raise e

let create ?(initial_epoch = 1) mem ~body =
  let n = Memory.n mem in
  (* Process Zobrist keys use negative slot numbers ([lnot pid]) so they
     can never coincide with Memory's cell keys (ids >= 0) — hygiene,
     not a correctness requirement: the two digests are mixed separately
     by the model checker. *)
  let zp =
    Array.init (n + 1) (fun pid ->
        if pid = 0 then 0 else Encode.mix Encode.fingerprint_seed (lnot pid))
  in
  let fresh_fp = ref 0 in
  for pid = 1 to n do
    (* tag 1 = Fresh, signature 0: the post-crash contribution. *)
    fresh_fp := !fresh_fp lxor Encode.mix (Encode.mix zp.(pid) 1) 0
  done;
  let rec t =
    {
      mem;
      n;
      body;
      slots = Array.make (n + 1) Fresh;
      live =
        (let s = Bitset.create n in
         for pid = 1 to n do
           Bitset.add s pid
         done;
         s);
      initial_epoch;
      epoch = initial_epoch;
      clock = 0;
      crashes = 0;
      crash_hooks = [];
      crash_one_hooks = [];
      local_sig = Array.make (n + 1) 0;
      zp;
      fresh_fp = !fresh_fp;
      fp = 0;
      fp_live = false;
      faults = None;
      handler =
        { retc = (fun () -> Finished); exnc = crashed; effc = (fun e -> effc t e) };
      running = 0;
      budget = 0;
      halt_below = 0;
    }
  in
  t

let slot_tag = function
  | Fresh -> 1
  | Finished -> 3
  | Sus_read _ | Sus_write _ | Sus_cas _ | Sus_fas _ | Sus_faa _ | Sus_fasas _
  | Sus_await _ | Sus_await2 _ ->
    2

let[@inline] contribution t pid =
  Encode.mix
    (Encode.mix t.zp.(pid) (slot_tag t.slots.(pid)))
    t.local_sig.(pid)

(* Pid-independent analogue of [contribution] for the symmetry quotient
   (DESIGN.md §5.19): same (slot tag, consumed-value signature) payload,
   keyed by [sym_seed] instead of the per-pid [zp] key, so two processes
   at the same control point with the same consumed-value history
   contribute equally regardless of their ids. [lnot] keeps the tag
   domain disjoint from Memory's slice-slot keys (hygiene, mirrors
   [zp]'s negative slots). Computed on demand — nothing incremental to
   maintain, no effect on any hot path. *)
let[@inline] sym_contribution t pid =
  Encode.mix
    (Encode.mix Encode.sym_seed (lnot (slot_tag t.slots.(pid))))
    t.local_sig.(pid)

let not_runnable () = invalid_arg "Runtime.step: process is not runnable"

(* Up to [k >= 1] steps of [pid], returning how many it took: the first
   starts the body (a fresh process) or resumes it, the rest run inside
   the handler. It stops early where the body finishes and, past the
   first step with [halt_below = k], before an await whose condition
   fails. The digest brackets the whole run: the contributions in
   between telescope, so one xor-out before and one xor-in after cover
   any number of steps. *)
let steps t pid k ~halt_below =
  if pid < 1 || t.slots.(pid) == Finished then not_runnable ();
  if t.fp_live then t.fp <- t.fp lxor contribution t pid;
  t.running <- pid;
  t.budget <- k;
  t.halt_below <- halt_below;
  let st =
    match t.slots.(pid) with
    | Fresh ->
      let epoch = t.epoch in
      Effect.Deep.match_with (fun () -> t.body ~pid ~epoch) () t.handler
    | st -> again t st
  in
  (* A body that returns before its first operation still took a step. *)
  if t.budget = k then begin
    t.budget <- k - 1;
    t.clock <- t.clock + 1
  end;
  t.slots.(pid) <- st;
  if st == Finished then Bitset.remove t.live pid;
  if t.fp_live then t.fp <- t.fp lxor contribution t pid;
  let taken = k - t.budget in
  t.budget <- 0;
  taken

let step t pid =
  (match t.faults with
  | None -> ()
  | Some f ->
    if not (runnable t pid) then not_runnable ();
    fault_tick t;
    (* Explicitly stepping a suppressed process models a spurious
       re-check: the wakeup is re-delivered and the await re-reads. *)
    if f.susp.(pid) then clear_susp f pid);
  ignore (steps t pid 1 ~halt_below:0)

(* Armed faults have per-step housekeeping ([fault_tick]), so they take
   the steps one at a time. *)
let step_n t pid k =
  match t.faults with
  | Some _ ->
    for _ = 1 to k do
      step t pid
    done
  | None ->
    (* Budget left over: the body finished before its [k]-th step. *)
    if k > 0 && steps t pid k ~halt_below:0 < k then not_runnable ()

let step_productive t pid ~max =
  if max < 1 then 0
  else
    match t.faults with
    | Some _ ->
      step t pid;
      let taken = ref 1 in
      while !taken < max && runnable t pid && not (blocked t pid) do
        step t pid;
        incr taken
      done;
      !taken
    | None -> steps t pid max ~halt_below:max

let discontinue_status st =
  let kill : type a. (a, status) Effect.Deep.continuation -> unit =
   fun k ->
    match Effect.Deep.discontinue k Proc.Crashed with
    | Finished -> ()
    | Fresh | Sus_read _ | Sus_write _ | Sus_cas _ | Sus_fas _ | Sus_faa _
    | Sus_fasas _ | Sus_await _ | Sus_await2 _ ->
      failwith "Runtime: a fiber caught the Crashed exception"
  in
  match st with
  | Fresh | Finished -> ()
  | Sus_read (_, k) -> kill k
  | Sus_write (_, _, k) -> kill k
  | Sus_cas (_, _, _, k) -> kill k
  | Sus_fas (_, _, k) -> kill k
  | Sus_faa (_, _, k) -> kill k
  | Sus_fasas (_, _, _, k) -> kill k
  | Sus_await (_, _, k) -> kill k
  | Sus_await2 (_, _, _, k) -> kill k

(* Every process back in the NCS with an empty signature; suspended
   fibers are discontinued, never dropped. *)
let restart_all t =
  for pid = 1 to t.n do
    discontinue_status t.slots.(pid);
    t.slots.(pid) <- Fresh;
    Bitset.add t.live pid;
    t.local_sig.(pid) <- 0
  done

let crash_one t pid =
  if pid < 1 || pid > t.n then invalid_arg "Runtime.crash_one: bad pid";
  clear_faults_of t pid;
  t.clock <- t.clock + 1;
  if t.fp_live then t.fp <- t.fp lxor contribution t pid;
  discontinue_status t.slots.(pid);
  t.slots.(pid) <- Fresh;
  Bitset.add t.live pid;
  t.local_sig.(pid) <- 0;
  if t.fp_live then t.fp <- t.fp lxor contribution t pid;
  List.iter (fun hook -> hook ~pid) t.crash_one_hooks

let crash t ?(bump = 1) () =
  if bump < 1 then invalid_arg "Runtime.crash: bump must be >= 1";
  (* Suppressions die with the fibers; buffered writes are DISCARDED —
     they were still in flight to persistence when the system failed. *)
  (match t.faults with
  | None -> ()
  | Some _ ->
    for pid = 1 to t.n do
      clear_faults_of t pid
    done);
  t.clock <- t.clock + 1;
  t.crashes <- t.crashes + 1;
  restart_all t;
  (* All contributions collapse to the precomputed all-Fresh digest; the
     epoch is mixed at [fingerprint] read time, not here. *)
  if t.fp_live then t.fp <- t.fresh_fp;
  t.epoch <- t.epoch + bump;
  List.iter (fun hook -> hook ~epoch:t.epoch) t.crash_hooks

let on_crash t hook = t.crash_hooks <- hook :: t.crash_hooks
let on_crash_one t hook = t.crash_one_hooks <- hook :: t.crash_one_hooks

(* The one loop that lets a {!Schedule.t} drive a runtime. *)
let run ?(max_steps = max_int) t (schedule : Schedule.t) =
  let rec loop () =
    if t.clock < max_steps && not (Bitset.is_empty t.live) then
      match schedule ~clock:t.clock ~enabled:t.live with
      | None -> ()
      | Some (Schedule.Step pid) ->
        step t pid;
        loop ()
      | Some Schedule.Crash ->
        crash t ();
        loop ()
      | Some (Schedule.Crash_one pid) ->
        crash_one t pid;
        loop ()
  in
  loop ()

(* Suspended fibers are discontinued with [Proc.Crashed], exactly as a
   crash step does, never dropped: on OCaml 5.1 a continuation that is
   neither resumed nor discontinued keeps its fiber stack for the life
   of the process, while a discontinued fiber's stack goes back to the
   domain's stack cache. Measured on OCaml 5.1.1, x86-64: one million
   dropped fibers still held 615 MB RSS after [Gc.compact] and cost
   ~450 ns each, against ~70 ns for a discontinued one. No simulated
   body catches [Crashed] ([discontinue_status] fails loudly if one
   does), so the unwinding touches no cell. *)
let reset t =
  restart_all t;
  t.epoch <- t.initial_epoch;
  t.clock <- 0;
  t.crashes <- 0;
  t.fp <- 0;
  t.fp_live <- false;
  t.faults <- None

(* --- state identity (for the model checker's visited set) --- *)

let resync t =
  let acc = ref 0 in
  for pid = 1 to t.n do
    acc := !acc lxor contribution t pid
  done;
  t.fp <- !acc;
  t.fp_live <- true

(* Armed faults are scheduler-relevant state (they change [blocked] and
   future writes), so they must distinguish fingerprints. Folded at read
   time — never armed on model-checking searches, so the incremental
   digest path is untouched there. *)
let faults_digest t h =
  match t.faults with
  | None -> h
  | Some f ->
    let acc = ref h in
    for pid = 1 to t.n do
      let s = if f.susp.(pid) && watch_unchanged f pid then 1 else 0 in
      let b, v, due =
        match f.buf_cell.(pid) with
        | Some c -> (Memory.id c + 1, f.buf_v.(pid), f.buf_due.(pid) - t.clock)
        | None -> (0, 0, 0)
      in
      acc :=
        Encode.mix
          (Encode.mix (Encode.mix (Encode.mix (Encode.mix !acc s) b) v) due)
          (max f.armed.(pid) (-1))
    done;
    !acc

let fingerprint t =
  if not t.fp_live then resync t;
  faults_digest t (Encode.mix (Encode.mix Encode.fingerprint_seed t.epoch) t.fp)

(* Recomputes the per-process contributions from scratch, spelled out
   via [Encode.zobrist] rather than the cached [zp] keys — the
   cross-check target for the incremental digest:
   [mix (zobrist (lnot pid) tag) sig = mix (mix zp.(pid) tag) sig]. *)
let fingerprint_slow t =
  let acc = ref 0 in
  for pid = 1 to t.n do
    acc :=
      !acc
      lxor Encode.mix
             (Encode.zobrist (lnot pid) (slot_tag t.slots.(pid)))
             t.local_sig.(pid)
  done;
  faults_digest t (Encode.mix (Encode.mix Encode.fingerprint_seed t.epoch) !acc)

(* --- fault-injection API ({!Scenario}'s failure schedules) --- *)

let awaiting t pid =
  pid >= 1 && pid <= t.n
  &&
  match t.slots.(pid) with
  | Sus_await _ | Sus_await2 _ -> true
  | Fresh | Finished | Sus_read _ | Sus_write _ | Sus_cas _ | Sus_fas _
  | Sus_faa _ | Sus_fasas _ ->
    false

let lose_wakeup t pid =
  if pid < 1 || pid > t.n then invalid_arg "Runtime.lose_wakeup: bad pid";
  match t.slots.(pid) with
  | Sus_await (c, _, _) ->
    let f = get_faults t in
    f.susp.(pid) <- true;
    f.susp_cell.(pid) <- Some c;
    f.susp_v.(pid) <- Memory.peek c;
    f.susp_cell2.(pid) <- None;
    true
  | Sus_await2 (c1, c2, _, _) ->
    let f = get_faults t in
    f.susp.(pid) <- true;
    f.susp_cell.(pid) <- Some c1;
    f.susp_v.(pid) <- Memory.peek c1;
    f.susp_cell2.(pid) <- Some c2;
    f.susp_v2.(pid) <- Memory.peek c2;
    true
  | Fresh | Finished | Sus_read _ | Sus_write _ | Sus_cas _ | Sus_fas _
  | Sus_faa _ | Sus_fasas _ ->
    false

let delay_writes t pid ~window =
  if pid < 1 || pid > t.n then invalid_arg "Runtime.delay_writes: bad pid";
  if window < 1 then invalid_arg "Runtime.delay_writes: window must be >= 1";
  (get_faults t).armed.(pid) <- window

let drain_faults t =
  match t.faults with
  | None -> false
  | Some f ->
    let any = ref false in
    for pid = 1 to t.n do
      (match f.buf_cell.(pid) with
      | Some _ ->
        flush_buf t f pid;
        any := true
      | None -> ());
      (* A suppressed await can only delay, never kill: every await in
         this codebase is a poll loop, so the process eventually
         re-checks (a spurious wakeup). Model that here rather than
         letting a lost wakeup masquerade as a deadlock. *)
      if f.susp.(pid) && watch_unchanged f pid then begin
        clear_susp f pid;
        any := true
      end
    done;
    !any

let opaque t pid =
  if pid < 1 || pid > t.n then invalid_arg "Runtime.opaque: bad pid";
  (* Starting the body runs arbitrary setup up to its first operation,
     which then executes within the same step — unknowable without
     running it. *)
  match t.slots.(pid) with
  | Fresh -> true
  | Finished | Sus_read _ | Sus_write _ | Sus_cas _ | Sus_fas _ | Sus_faa _
  | Sus_fasas _ | Sus_await _ | Sus_await2 _ ->
    false

(* The [i]-th cell (0 or 1) a pending operation accesses, or -1. *)
let access st i =
  match st with
  | Sus_read (c, _) | Sus_await (c, _, _) | Sus_write (c, _, _)
  | Sus_cas (c, _, _, _) | Sus_fas (c, _, _) | Sus_faa (c, _, _) ->
    if i = 0 then Memory.id c else -1
  | Sus_fasas (c1, _, c2, _) | Sus_await2 (c1, c2, _, _) ->
    Memory.id (if i = 0 then c1 else c2)
  | Fresh | Finished -> -1

(* A failed CAS still counts as a write: whether it fails depends on the
   cell's value, and it invalidates cached copies, so it never commutes
   with another access to the same cell. *)
let may_write = function
  | Sus_write _ | Sus_cas _ | Sus_fas _ | Sus_faa _ | Sus_fasas _ -> true
  | Fresh | Finished | Sus_read _ | Sus_await _ | Sus_await2 _ -> false

let conflict t p q =
  if p < 1 || p > t.n || q < 1 || q > t.n then
    invalid_arg "Runtime.conflict: bad pid";
  let sp = t.slots.(p) and sq = t.slots.(q) in
  (may_write sp || may_write sq)
  &&
  let shared a = a >= 0 && (a = access sq 0 || a = access sq 1) in
  shared (access sp 0) || shared (access sp 1)
