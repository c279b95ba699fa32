(* One suspension constructor per {!Proc} effect: [advance] dispatches
   straight to the matching {!Memory} fast path with the operands in
   registers — no [Memory.op] is ever built on the no-tracer path. All
   memory suspensions resume with [int] ([Write] included; the value is
   discarded by [Proc.write]). *)
type status =
  | Returned
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

type slot =
  | Fresh  (** in the NCS; body not started in the current epoch *)
  | Waiting of status  (** suspended at a shared-memory operation *)
  | Finished  (** body returned; stays done until the next crash *)

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
  slots : slot array; (* 1-based; index 0 unused *)
  initial_epoch : int; (* what {!reset} restores [epoch] to *)
  mutable epoch : int;
  mutable clock : int;
  mutable crashes : int;
  mutable crash_hooks : (epoch:int -> unit) list;
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
}

let handler : (unit, status) Effect.Deep.handler =
  {
    retc = (fun () -> Returned);
    exnc =
      (fun e ->
        match e with
        | Proc.Crashed -> Returned
        | e -> raise e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Proc.Read c ->
          Some
            (fun (k : (a, status) Effect.Deep.continuation) -> Sus_read (c, k))
        | Proc.Write (c, v) ->
          Some (fun (k : (a, status) Effect.Deep.continuation) ->
              Sus_write (c, v, k))
        | Proc.Cas (c, expect, repl) ->
          Some (fun (k : (a, status) Effect.Deep.continuation) ->
              Sus_cas (c, expect, repl, k))
        | Proc.Fas (c, v) ->
          Some (fun (k : (a, status) Effect.Deep.continuation) ->
              Sus_fas (c, v, k))
        | Proc.Faa (c, d) ->
          Some (fun (k : (a, status) Effect.Deep.continuation) ->
              Sus_faa (c, d, k))
        | Proc.Fasas (c, v, dst) ->
          Some (fun (k : (a, status) Effect.Deep.continuation) ->
              Sus_fasas (c, v, dst, k))
        | Proc.Await_one (c, pred) ->
          Some (fun (k : (a, status) Effect.Deep.continuation) ->
              Sus_await (c, pred, k))
        | Proc.Await_two (c1, c2, pred) ->
          Some (fun (k : (a, status) Effect.Deep.continuation) ->
              Sus_await2 (c1, c2, pred, k))
        | _ -> None);
  }

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
  {
    mem;
    n;
    body;
    slots = Array.make (n + 1) Fresh;
    initial_epoch;
    epoch = initial_epoch;
    clock = 0;
    crashes = 0;
    crash_hooks = [];
    local_sig = Array.make (n + 1) 0;
    zp;
    fresh_fp = !fresh_fp;
    fp = 0;
    fp_live = false;
    faults = None;
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
  | Fresh | Waiting _ -> true
  | Finished -> false

(* A process is spin-blocked if its pending operation is an await whose
   condition does not currently hold: stepping it re-reads the cell(s) but
   cannot change any value, so it is unproductive until someone writes. *)
let suppressed t pid =
  match t.faults with
  | None -> false
  | Some f -> f.susp.(pid) && watch_unchanged f pid

let blocked t pid =
  suppressed t pid
  ||
  match t.slots.(pid) with
  | Fresh | Finished -> false
  | Waiting st -> (
    match st with
    | Sus_await (c, pred, _) -> not (pred (Memory.peek c))
    | Sus_await2 (c1, c2, pred, _) ->
      not (pred (Memory.peek c1) (Memory.peek c2))
    | Returned | Sus_read _ | Sus_write _ | Sus_cas _ | Sus_fas _ | Sus_faa _
    | Sus_fasas _ ->
      false)

let blocked_on t pid =
  match t.slots.(pid) with
  | Fresh | Finished -> None
  | Waiting st -> (
    match st with
    | Sus_await (c, pred, _) ->
      if pred (Memory.peek c) && not (suppressed t pid) then None
      else Some (Memory.name c)
    | Sus_await2 (c1, c2, pred, _) ->
      if pred (Memory.peek c1) (Memory.peek c2) && not (suppressed t pid) then
        None
      else Some (Memory.name c1 ^ "+" ^ Memory.name c2)
    | Returned | Sus_read _ | Sus_write _ | Sus_cas _ | Sus_fas _ | Sus_faa _
    | Sus_fasas _ ->
      None)

let enabled t =
  let rec collect pid acc =
    if pid < 1 then acc
    else collect (pid - 1) (if runnable t pid then pid :: acc else acc)
  in
  collect t.n []

let all_done t = enabled t = []

let start t pid =
  let epoch = t.epoch in
  Effect.Deep.match_with (fun () -> t.body ~pid ~epoch) () handler

(* Executes one suspended operation, resuming the fiber when possible.
   Returns the fiber's next state. An await whose condition fails keeps the
   same continuation: the read was charged, the process stays put. *)
let advance t ~pid st =
  let consume v = t.local_sig.(pid) <- Encode.mix t.local_sig.(pid) v in
  (* A held store buffer drains before any further operation by its
     owner (fence semantics): the process can never observe shared
     memory ahead of its own unpublished write. *)
  (match t.faults with
  | Some f -> ( match f.buf_cell.(pid) with Some _ -> flush_buf t f pid | None -> ())
  | None -> ());
  match st with
  | Returned -> Returned
  | Sus_read (c, k) ->
    let v = Memory.exec_read t.mem ~pid c in
    consume v;
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
      consume v;
      Effect.Deep.continue k v
    | _ ->
      let v = Memory.exec_write t.mem ~pid c v in
      consume v;
      Effect.Deep.continue k v)
  | Sus_cas (c, expect, repl, k) ->
    let v = Memory.exec_cas t.mem ~pid c ~expect ~repl in
    consume v;
    Effect.Deep.continue k v
  | Sus_fas (c, v, k) ->
    let v = Memory.exec_fas t.mem ~pid c v in
    consume v;
    Effect.Deep.continue k v
  | Sus_faa (c, d, k) ->
    let v = Memory.exec_faa t.mem ~pid c d in
    consume v;
    Effect.Deep.continue k v
  | Sus_fasas (c, v, dst, k) ->
    let v = Memory.exec_fasas t.mem ~pid c v ~dst in
    consume v;
    Effect.Deep.continue k v
  | Sus_await (c, pred, k) ->
    let v = Memory.exec_read t.mem ~pid c in
    if pred v then begin
      consume v;
      Effect.Deep.continue k v
    end
    else st
  | Sus_await2 (c1, c2, pred, k) ->
    let v1 = Memory.exec_read t.mem ~pid c1 in
    let v2 = Memory.exec_read t.mem ~pid c2 in
    if pred v1 v2 then begin
      consume v1;
      consume v2;
      Effect.Deep.continue k (v1, v2)
    end
    else st

let settle t pid = function
  | Returned -> t.slots.(pid) <- Finished
  | st -> t.slots.(pid) <- Waiting st

let slot_tag = function Fresh -> 1 | Waiting _ -> 2 | Finished -> 3

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

let step t pid =
  (match t.faults with
  | None -> ()
  | Some f ->
    fault_tick t;
    (* Explicitly stepping a suppressed process models a spurious
       re-check: the wakeup is re-delivered and the await re-reads. *)
    if f.susp.(pid) then clear_susp f pid);
  t.clock <- t.clock + 1;
  match t.slots.(pid) with
  | Finished -> invalid_arg "Runtime.step: process is not runnable"
  | (Fresh | Waiting _) as slot ->
    if t.fp_live then t.fp <- t.fp lxor contribution t pid;
    (match slot with
    | Fresh -> (
      match start t pid with
      | Returned -> t.slots.(pid) <- Finished
      | st -> settle t pid (advance t ~pid st))
    | Waiting st -> settle t pid (advance t ~pid st)
    | Finished -> assert false);
    if t.fp_live then t.fp <- t.fp lxor contribution t pid

let discontinue_status st =
  let kill : type a. (a, status) Effect.Deep.continuation -> unit =
   fun k ->
    match Effect.Deep.discontinue k Proc.Crashed with
    | Returned -> ()
    | Sus_read _ | Sus_write _ | Sus_cas _ | Sus_fas _ | Sus_faa _
    | Sus_fasas _ | Sus_await _ | Sus_await2 _ ->
      failwith "Runtime.crash: a fiber caught the Crashed exception"
  in
  match st with
  | Returned -> ()
  | Sus_read (_, k) -> kill k
  | Sus_write (_, _, k) -> kill k
  | Sus_cas (_, _, _, k) -> kill k
  | Sus_fas (_, _, k) -> kill k
  | Sus_faa (_, _, k) -> kill k
  | Sus_fasas (_, _, _, k) -> kill k
  | Sus_await (_, _, k) -> kill k
  | Sus_await2 (_, _, _, k) -> kill k

let crash_one t pid =
  if pid < 1 || pid > t.n then invalid_arg "Runtime.crash_one: bad pid";
  clear_faults_of t pid;
  t.clock <- t.clock + 1;
  if t.fp_live then t.fp <- t.fp lxor contribution t pid;
  (match t.slots.(pid) with
  | Waiting st -> discontinue_status st
  | Fresh | Finished -> ());
  t.slots.(pid) <- Fresh;
  t.local_sig.(pid) <- 0;
  if t.fp_live then t.fp <- t.fp lxor contribution t pid

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
  for pid = 1 to t.n do
    (match t.slots.(pid) with
    | Waiting st -> discontinue_status st
    | Fresh | Finished -> ());
    t.slots.(pid) <- Fresh;
    t.local_sig.(pid) <- 0
  done;
  (* All contributions collapse to the precomputed all-Fresh digest; the
     epoch is mixed at [fingerprint] read time, not here. *)
  if t.fp_live then t.fp <- t.fresh_fp;
  t.epoch <- t.epoch + bump;
  List.iter (fun hook -> hook ~epoch:t.epoch) t.crash_hooks

let on_crash t hook = t.crash_hooks <- hook :: t.crash_hooks

(* Suspended fibers are dropped, not discontinued: a fresh runtime
   would not run them either, and discontinuing would execute body code
   (exception handlers) between runs. *)
let reset t =
  Array.fill t.slots 0 (t.n + 1) Fresh;
  Array.fill t.local_sig 0 (t.n + 1) 0;
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
  | Waiting (Sus_await _ | Sus_await2 _) -> true
  | Fresh | Finished | Waiting _ -> false

let lose_wakeup t pid =
  if pid < 1 || pid > t.n then invalid_arg "Runtime.lose_wakeup: bad pid";
  match t.slots.(pid) with
  | Waiting (Sus_await (c, _, _)) ->
    let f = get_faults t in
    f.susp.(pid) <- true;
    f.susp_cell.(pid) <- Some c;
    f.susp_v.(pid) <- Memory.peek c;
    f.susp_cell2.(pid) <- None;
    true
  | Waiting (Sus_await2 (c1, c2, _, _)) ->
    let f = get_faults t in
    f.susp.(pid) <- true;
    f.susp_cell.(pid) <- Some c1;
    f.susp_v.(pid) <- Memory.peek c1;
    f.susp_cell2.(pid) <- Some c2;
    f.susp_v2.(pid) <- Memory.peek c2;
    true
  | Fresh | Finished | Waiting _ -> false

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

let step_footprint t pid =
  if pid < 1 || pid > t.n then invalid_arg "Runtime.step_footprint: bad pid";
  match t.slots.(pid) with
  | Fresh ->
    (* Starting the body runs arbitrary setup up to its first operation,
       which then executes within the same step — unknowable without
       running it. *)
    None
  | Finished -> Some []
  | Waiting st -> (
    match st with
    | Returned -> Some []
    | Sus_read (c, _) | Sus_await (c, _, _) -> Some [ (Memory.id c, false) ]
    | Sus_write (c, _, _) | Sus_cas (c, _, _, _) | Sus_fas (c, _, _)
    | Sus_faa (c, _, _) ->
      Some [ (Memory.id c, true) ]
    | Sus_fasas (c, _, dst, _) ->
      Some [ (Memory.id c, true); (Memory.id dst, true) ]
    | Sus_await2 (c1, c2, _, _) ->
      Some [ (Memory.id c1, false); (Memory.id c2, false) ])
