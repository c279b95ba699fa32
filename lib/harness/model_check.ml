open Sim

type reduction = No_reduction | Dedup | Por | Sym

let reduction_of_string s =
  match String.lowercase_ascii s with
  | "none" -> No_reduction
  | "dedup" -> Dedup
  | "por" -> Por
  | "sym" -> Sym
  | s -> invalid_arg ("Model_check.reduction_of_string: " ^ s)

let reduction_to_string = function
  | No_reduction -> "none"
  | Dedup -> "dedup"
  | Por -> "por"
  | Sym -> "sym"

let pp_reduction ppf r = Format.pp_print_string ppf (reduction_to_string r)

(* Visited-set representation: the exact sharded map (default,
   verdict-authoritative) or the fixed-memory double-hashed bit array
   (Holzmann supertrace — DESIGN.md §5.19). Bitstate cannot store
   per-key coverage masks, so the engine switches to [Key_mix] budget
   coding under it (the budget vector folds into the key itself). *)
type vset_mode = Exact | Bitstate of { bits : int; salt : int }

type outcome = {
  runs : int;
  steps : int;
  violations : string list;
  step_cap_hits : int;
  deadlocks : int;
  truncated : bool;
  distinct_states : int;
  pruned_runs : int;
  pruned_branches : int;
  sleep_pruned : int;
  bitstate_occupancy : float option;
  collision_bound : float option;
  witness : int array option;
}

type declared = {
  d_refs : (string * int ref) list;
  d_arrays : (string * int array) list;
  d_counters : (string * int ref) list;
  d_histograms : (string * Stats.t) list;
  d_restore_refs : (string * int ref) list;
  d_restore_arrays : (string * int array) list;
  d_crash : (epoch:int -> unit) option;
  d_crash_one : (pid:int -> unit) option;
  d_finish : (unit -> unit) option;
}

let nothing =
  {
    d_refs = [];
    d_arrays = [];
    d_counters = [];
    d_histograms = [];
    d_restore_refs = [];
    d_restore_arrays = [];
    d_crash = None;
    d_crash_one = None;
    d_finish = None;
  }

type scenario = {
  n : int;
  model : Memory.model;
  build :
    Memory.t ->
    violation:(string -> unit) ->
    (pid:int -> epoch:int -> unit) * declared list;
}

(* Decisions are encoded as ints: pid > 0 is a step, 0 is a system-wide
   crash, -pid is an independent crash of that process. Forced schedules
   ({!run_schedule}) extend the negative range with the injectable
   faults: -(n+pid) suppresses pid's pending await (lost wakeup) and
   -(2n+pid) arms pid's next write with a delayed-visibility window. The
   extended codes are scenario-relative (they depend on [n]); [explore]
   never branches over them — faults enter only through explicit
   schedules. *)
let crash_decision = 0

type decision =
  | Step of int
  | Crash
  | Crash_one of int
  | Lose_wakeup of int
  | Delay_writes of int

let decision_of_int ~n d =
  if d > 0 && d <= n then Step d
  else if d = crash_decision then Crash
  else if d < 0 && -d <= n then Crash_one (-d)
  else if d < 0 && -d <= 2 * n then Lose_wakeup (-d - n)
  else if d < 0 && -d <= 3 * n then Delay_writes (-d - (2 * n))
  else
    invalid_arg
      (Printf.sprintf "Model_check.decision_of_int: %d out of range for n=%d" d
         n)

let int_of_decision ~n = function
  | Step pid -> pid
  | Crash -> crash_decision
  | Crash_one pid -> -pid
  | Lose_wakeup pid -> -(n + pid)
  | Delay_writes pid -> -((2 * n) + pid)

let describe_decision ~n d =
  match decision_of_int ~n d with
  | Step pid -> Printf.sprintf "step p%d" pid
  | Crash -> "crash"
  | Crash_one pid -> Printf.sprintf "crash p%d" pid
  | Lose_wakeup pid -> Printf.sprintf "lose-wakeup p%d" pid
  | Delay_writes pid -> Printf.sprintf "delay-writes p%d" pid

(* A work item shares its parent run's trace array: replay [base.(0 ..
   cut - 1)], then [alt] (unless it is [no_alt]), then scheduler defaults.
   Sharing keeps the frontier's memory linear in the number of pending
   items; the arrays are never mutated once built.

   [div_used]/[crashes_used]/[ones_used] are the budget vector consumed
   by the forced part (prefix plus [alt]), computed once by the parent at
   push time: free positions only ever execute the default, so no budget
   is consumed past [cut + 1] and the child need not recount — which is
   what lets [Sym]'s sleep-aware default selection diverge from the plain
   rotation without perturbing budget accounting. [sleep] is the sleep
   set (bitmask over pids, bit [pid - 1]) valid at position [cut]:
   productive processes whose next transition was already explored from
   an earlier sibling of this item — excluded from defaults and
   branching until a dependent step wakes them (DESIGN.md §5.19). Always
   0 below [Sym]. *)
type item = {
  base : int array;
  cut : int;
  alt : int;
  div_used : int;
  crashes_used : int;
  ones_used : int;
  sleep : int;
}

let no_alt = min_int

(* Sleep masks live in one native int. Scenarios past that width (never
   in practice — model-checked n is single-digit) just forgo sleep sets. *)
let max_sleep_pids = 62

let max_recorded_violations = 20

(* --- budget-qualified visited set --- *)

(* The search is budget-bounded, so "state already visited" must be
   qualified: an earlier visit that had already consumed more
   divergence/crash/crash-one budget explores a *smaller* subtree than a
   later arrival with budget to spare, and pruning the richer arrival
   would lose reachable states. A consumed-budget vector is clamped
   per-component to its bound (once a budget is exhausted the exact
   excess is irrelevant — no further branching of that kind happens
   either way) and packed into a bit index; the visited set stores, per
   fingerprint, the union of the *domination closures* of the vectors
   that reached it — every vector with component-wise >= consumption,
   whose subtree is contained in the explored one. An arrival is pruned
   iff its own bit is already stored. When the clamped vector space
   exceeds a word (exotic bounds), the vector is mixed into the
   fingerprint itself instead: sound, just fewer merges. *)
type budget_coding =
  | Closure of int array (* packed vector -> domination-closure mask *)
  | Key_mix

let budget_coding ~divergence_bound ~crash_bound ~crash_one_bound =
  (* Branch budgets can be given as huge sentinels; clamp the coding
     dimensions, not the search. *)
  let dim b = b + 1 in
  let d1 = dim divergence_bound
  and c1 = dim crash_bound
  and o1 = dim crash_one_bound in
  if d1 > 0 && c1 > 0 && o1 > 0 && d1 * c1 * o1 <= 62 then begin
    let pack d c o = d + (d1 * (c + (c1 * o))) in
    let closures = Array.make (d1 * c1 * o1) 0 in
    for d = 0 to d1 - 1 do
      for c = 0 to c1 - 1 do
        for o = 0 to o1 - 1 do
          let m = ref 0 in
          for d' = d to d1 - 1 do
            for c' = c to c1 - 1 do
              for o' = o to o1 - 1 do
                m := !m lor (1 lsl pack d' c' o')
              done
            done
          done;
          closures.(pack d c o) <- !m
        done
      done
    done;
    Closure closures
  end
  else Key_mix

(* A growable int buffer: a world's per-run trail and choice points. *)
type buf = { mutable data : int array; mutable len : int }

let buf () = { data = Array.make 256 0; len = 0 }

(* Makes room for [k] more ints at the end of [b]; returns their offset. *)
let reserve b k =
  let off = b.len in
  if off + k > Array.length b.data then begin
    let bigger = Array.make (max (off + k) (2 * Array.length b.data)) 0 in
    Array.blit b.data 0 bigger 0 off;
    b.data <- bigger
  end;
  b.len <- off + k;
  off

let append b v = b.data.(reserve b 1) <- v

(* --- the simulated world ---

   One instance of a scenario: its memory, the stack and monitors
   [build] made over it, the runtime, and what the world derives from
   the declared monitor state. [explore] builds one per call and
   {!reset}s it in place before every run (DESIGN.md §5.14): effect
   continuations are one-shot, so each run still replays from the root,
   but it no longer rebuilds the stack, the runtime or the monitors.
   [sink] is where the builder's [violation] delivers; each run points
   it at its own list. [refs] and [arrays] are the declared verdict
   state, flattened in declaration order. The scratch fields are reused
   by every run of the world; none of them carries state from one run
   to the next. *)
type world = {
  mem : Memory.t;
  rt : Runtime.t;
  sink : (string -> unit) ref;
  declared : declared list;
  finish_hooks : (unit -> unit) list; (* in declaration order *)
  refs : int ref list;
  arrays : int array list;
  pmask : Bitset.t; (* productive processes of the current step *)
  dep : Bitset.t; (* POR conflict set of the current choice point *)
  bundles : int array; (* per-pid digests of the current sym state *)
  trail : buf; (* the decisions the current run has taken *)
  points : buf; (* its choice points, laid out as below *)
}

(* One choice point in [points], one per free position of a run with
   divergence budget left (the [k]-th at position [forced_len + k]):
   these fields, then the productive set and, under [Por]/[Sym], the POR
   conflict set, each as [Bitset.width] words — so any n fits, and
   recording one allocates nothing. *)
let cp_default = 0 (* the default pid there *)
let cp_sleep = 1 (* the sleep set there *)
let cp_opaque = 2 (* productive processes whose next step is opaque *)
let cp_sets = 3

let values sel ds = List.concat_map (fun d -> List.map snd (sel d)) ds

(* The monitor part of the [Dedup]/[Por] key: every verdict ref, then
   every verdict array, in declaration order. *)
let monitor_fold refs arrays =
  List.fold_left Encode.mix_array
    (Encode.mix_refs Encode.fingerprint_seed refs)
    arrays

let monitor_fingerprint ds =
  monitor_fold (values (fun d -> d.d_refs) ds) (values (fun d -> d.d_arrays) ds)

let world scenario =
  let n = scenario.n in
  let mem = Memory.create ~model:scenario.model ~n in
  let sink = ref ignore in
  let body, declared = scenario.build mem ~violation:(fun msg -> !sink msg) in
  (* The one restore: every declared ref, counter and array back to its
     value now; histograms accumulate across runs. *)
  let kept_refs =
    values (fun d -> d.d_refs @ d.d_counters @ d.d_restore_refs) declared
  and kept_arrays = values (fun d -> d.d_arrays @ d.d_restore_arrays) declared in
  let ref_inits = List.map ( ! ) kept_refs in
  let array_inits = List.map Array.copy kept_arrays in
  Memory.on_reset mem (fun () ->
      List.iter2 ( := ) kept_refs ref_inits;
      List.iter2
        (fun a a0 -> Array.blit a0 0 a 0 (Array.length a0))
        kept_arrays array_inits);
  let rt = Runtime.create mem ~body in
  let hooks sel = List.filter_map sel declared in
  (* The runtime runs its hooks newest first: register in reverse so
     they run in declaration order. *)
  List.iter (Runtime.on_crash rt) (List.rev (hooks (fun d -> d.d_crash)));
  List.iter (Runtime.on_crash_one rt)
    (List.rev (hooks (fun d -> d.d_crash_one)));
  {
    mem;
    rt;
    sink;
    declared;
    finish_hooks = hooks (fun d -> d.d_finish);
    refs = values (fun d -> d.d_refs) declared;
    arrays = values (fun d -> d.d_arrays) declared;
    pmask = Bitset.create n;
    dep = Bitset.create n;
    bundles = Array.make (max 1 n) 0;
    trail = buf ();
    points = buf ();
  }

let reset w ~violation =
  Runtime.reset w.rt;
  Memory.reset w.mem;
  w.sink := violation

let memory w = w.mem
let runtime w = w.rt
let finish w = List.iter (fun h -> h ()) w.finish_hooks

let find what sel w name =
  match List.find_map (fun d -> List.assoc_opt name (sel d)) w.declared with
  | Some x -> x
  | None -> invalid_arg (Printf.sprintf "Model_check.%s: none named %S" what name)

let counter w name = !(find "counter" (fun d -> d.d_counters) w name)
let histogram w name = find "histogram" (fun d -> d.d_histograms) w name
let array w name = find "array" (fun d -> d.d_arrays) w name

let counters w =
  List.concat_map
    (fun d -> List.map (fun (k, r) -> (k, !r)) d.d_counters)
    w.declared

(* The [Dedup]/[Por] state key: memory and runtime digests, the declared
   monitor state, and the scheduler's last-stepped process. *)
let state_fingerprint w ~cur =
  let h = Encode.mix (Memory.fingerprint w.mem) (Runtime.fingerprint w.rt) in
  Encode.mix (Encode.mix h (monitor_fold w.refs w.arrays)) cur

(* [h] mixed with element [k] of every verdict array. *)
let rec mix_slot h arrays k =
  match arrays with
  | [] -> h
  | (a : int array) :: rest -> mix_slot (Encode.mix h a.(k)) rest k

(* Symmetry-canonical fingerprint (DESIGN.md §5.19): the residue
   (globals, cell count, epoch, the verdict refs and element 0 of every
   verdict array) mixed with the SORTED per-pid bundle digests — each
   bundle a pid-independent hash of one process's control point,
   consumed-value signature, memory slice and element [pid] of every
   verdict array — plus the canonical rank of the last-stepped process.
   Two states related by a pid permutation hash equal; sorting quotients
   the orbit. Pid-valued refs (the occupant) sit in the residue and pin
   the permutation: fewer merges, never a lost violation. The bundles
   live in the world's scratch array; no allocation per state. *)
let sym_fingerprint w ~cur =
  let mem = w.mem and rt = w.rt and bundles = w.bundles in
  let h0 = Encode.mix (Memory.sym_part mem 0) (Memory.cell_count mem) in
  let h0 = Encode.mix h0 (Runtime.epoch rt) in
  let h0 =
    Encode.mix h0 (mix_slot (Encode.mix_refs Encode.sym_seed w.refs) w.arrays 0)
  in
  let n = Memory.n mem in
  for pid = 1 to n do
    let b =
      Encode.mix (Runtime.sym_contribution rt pid) (Memory.sym_part mem pid)
    in
    bundles.(pid - 1) <- Encode.mix b (mix_slot Encode.sym_seed w.arrays pid)
  done;
  let cur_bundle = if cur = 0 then 0 else bundles.(cur - 1) in
  (* Insertion sort: n is single-digit on every model-checked scenario. *)
  for i = 1 to n - 1 do
    let v = bundles.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && bundles.(!j) > v do
      bundles.(!j + 1) <- bundles.(!j);
      decr j
    done;
    bundles.(!j + 1) <- v
  done;
  (* Canonical last-stepped process: the rank of its bundle under the
     canonical order (first match on ties — any permutation mapping the
     states onto each other maps equal bundles to equal bundles, so the
     rank is permutation-invariant). *)
  let canon_cur = ref 0 in
  if cur <> 0 then begin
    let i = ref 0 in
    while bundles.(!i) <> cur_bundle do
      incr i
    done;
    canon_cur := !i + 1
  end;
  let h = ref h0 in
  for i = 0 to n - 1 do
    h := Encode.mix !h bundles.(i)
  done;
  Encode.mix !h !canon_cur

(* Everything one replayed run contributes to the outcome: a run resets
   the search's {!world} and, apart from that world and the visited set,
   touches no state outside this record. [children] is in push order. *)
type run_result = {
  r_steps : int;
  r_capped : bool;
  r_deadlock : bool;
  r_pruned : bool;  (* truncated at a visited (or sleep-covered) state *)
  r_por_skips : int;  (* commuting branches not emitted *)
  r_sleep_skips : int;  (* sleeping branches not emitted *)
  r_violations : string list;  (* in occurrence order *)
  r_children : item list;  (* in push order *)
  r_trace : int array;  (* the full decision sequence this run took *)
}

(* [scan]'s answers besides a pid. *)
let all_finished = 0
let stuck = -1

(* The per-step scan [replay] and [run_schedule_in] share: fills
   [w.pmask] with the productive (runnable and not spin-blocked)
   processes and returns the run-until-blocked default — [cur] while it
   stays productive, else the next productive pid after it, wrapping
   around — or [all_finished] when no process is runnable and [stuck]
   when every runnable process is spin-blocked. Fair, and terminating for
   livelock-free algorithms. Allocates nothing. *)
let scan w ~cur =
  let rt = w.rt and pmask = w.pmask in
  Bitset.clear pmask;
  let runnable = ref false and first = ref 0 and next = ref 0 in
  for p = 1 to Runtime.n rt do
    if Runtime.runnable rt p then begin
      runnable := true;
      if not (Runtime.blocked rt p) then begin
        Bitset.add pmask p;
        if !first = 0 then first := p;
        if !next = 0 && p > cur then next := p
      end
    end
  done;
  if not !runnable then all_finished
  else if !first = 0 then stuck
  else if Bitset.mem pmask cur then cur
  else if !next <> 0 then !next
  else !first

(* The deadlock path, after [scan] answered [stuck]: the violation
   naming what each runnable process, every one spin-blocked, spins on. *)
let deadlock_report rt =
  let where =
    String.concat ", "
      (List.map
         (fun p ->
           Printf.sprintf "p%d@%s" p
             (Option.value ~default:"?" (Runtime.blocked_on rt p)))
         (Runtime.enabled rt))
  in
  "deadlock: " ^ where

let replay ~world:w ~divergence_bound ~crash_bound ~crash_one_bound
    ~max_steps ~reduction ~vset ~coding ~eager
    { base; cut; alt; div_used; crashes_used; ones_used; sleep = sleep0 } =
  let local_violations = ref [] in
  let violation msg = local_violations := msg :: !local_violations in
  reset w ~violation;
  let mem = w.mem and rt = w.rt and n = Memory.n w.mem in
  (* The incremental memory/runtime digests switch themselves on at the
     first [fingerprint] call, which [covered] issues only past [cut] —
     so the shared prefix fast-forwards with zero fingerprint
     bookkeeping. [eager] (testing only) forces maintenance on from step
     0, i.e. keeps the digests live through the prefix; outcomes must
     not change. *)
  if eager then begin
    ignore (Memory.fingerprint mem);
    ignore (Runtime.fingerprint rt)
  end;
  (* The budget vector ([div_used], [crashes_used], [ones_used]) is the
     forced part's, precomputed by the parent (see {!item}): free
     positions always take the default, so a run consumes nothing more,
     and every choice point it records is reached with exactly this
     budget. *)
  let forced_len = if alt <> no_alt then cut + 1 else cut in
  (* The trace actually taken, and the choice points: the positions at
     which alternatives remain to be explored. *)
  let trail = w.trail and points = w.points in
  trail.len <- 0;
  points.len <- 0;
  let width = Bitset.width w.pmask in
  let stride = cp_sets + (2 * width) in
  (* The prefix [base.(0 .. cut - 1)] retraces states the parent run
     already owned, checked and branched: run it straight, with no scan,
     no choice point and no visited-set lookup, each run of equal
     consecutive steps as one [Runtime.step_n]. Nothing the checked loop
     stops for can happen there — the parent took every one of these
     decisions without getting stuck, deadlocking or reaching the step
     cap — and monitors still see every step. *)
  Array.blit base 0 trail.data (reserve trail cut) cut;
  let cur = ref 0 in
  let i = ref 0 in
  while !i < cut do
    let d = base.(!i) in
    let j = ref (!i + 1) in
    if d > 0 then begin
      while !j < cut && base.(!j) = d do
        incr j
      done;
      Runtime.step_n rt d (!j - !i);
      cur := d
    end
    else if d = crash_decision then Runtime.crash rt ()
    else Runtime.crash_one rt (-d);
    i := !j
  done;
  let pos = ref cut in
  let capped = ref false in
  let deadlock = ref false in
  let pruned = ref false in
  let por_skips = ref 0 in
  let sleep_skips = ref 0 in
  let symred = reduction = Sym in
  let por = match reduction with Por | Sym -> true | No_reduction | Dedup -> false in
  let sleep_on = symred && n <= max_sleep_pids in
  let sleep = ref (if sleep_on then sleep0 else 0) in
  let pmask = w.pmask in
  (* After executing each decision of the checked part: stop if the
     resulting state, at the current consumed-budget vector, is covered
     by an earlier run. Note the fingerprint is {e history-qualified}: a
     process's local signature hashes the whole value sequence it
     consumed, so two runs merge exactly when every process consumed the
     same values in its own order — commuting interleavings, the bulk of
     the schedule explosion — and a state revisited {e within} one run (a
     genuine livelock cycle) still hashes fresh. Livelocks therefore keep
     hitting the step cap, same as without reduction. *)
  let covered () =
    match vset with
    | None -> false
    | Some vs ->
      let fp =
        if symred then sym_fingerprint w ~cur:!cur
        else state_fingerprint w ~cur:!cur
      in
      (* A state reached with a non-empty sleep set has already ceded
         part of its subtree to earlier siblings, so it must not stand
         in for — nor be pruned by — a sleep-free visit (Godefroid's
         sleep-sets × state-caching interaction): qualify the key by the
         mask. Raw (pid-indexed) masks merge only across equal masks —
         conservative, never wrong. *)
      let fp = if !sleep <> 0 then Encode.mix fp !sleep else fp in
      let hit =
        match coding with
        | Closure closures ->
          let pack =
            min div_used divergence_bound
            + ((divergence_bound + 1)
               * (min crashes_used crash_bound
                 + ((crash_bound + 1) * min ones_used crash_one_bound)))
          in
          Parallel.Vset.covers_or_add vs fp ~bit:(1 lsl pack)
            ~closure:closures.(pack)
        | Key_mix ->
          let key =
            Encode.mix (Encode.mix (Encode.mix fp div_used) crashes_used)
              ones_used
          in
          Parallel.Vset.covers_or_add vs key ~bit:1 ~closure:1
      in
      if hit then pruned := true;
      hit
  in
  (* Sleep-aware default ([Sym] only): [scan]'s run-until-blocked
     rotation, skipping processes whose next transition an earlier
     sibling already explored. 0 when every productive process is asleep
     — the whole remaining subtree is covered elsewhere, so the run
     truncates (DESIGN.md §5.19). *)
  let slept q = !sleep land (1 lsl (q - 1)) <> 0 in
  let first_unslept_gt p =
    let q = ref 0 and i = ref (p + 1) in
    while !q = 0 && !i <= n do
      if Bitset.mem pmask !i && not (slept !i) then q := !i;
      incr i
    done;
    !q
  in
  let default_unslept d =
    if !sleep = 0 then d
    else if Bitset.mem pmask !cur && not (slept !cur) then !cur
    else
      let q = first_unslept_gt !cur in
      if q <> 0 then q else first_unslept_gt 0
  in
  (* Wake rule: executing a transition removes from the sleep set every
     process whose pending operation depends on it (Godefroid's
     independence filter — the slept copy of a dependent transition is
     no longer covered by its earlier exploration once the order
     matters). Crashes and opaque (fresh-start) steps depend on
     everything. Uses pre-execution footprints: called before the
     decision runs. *)
  let wake decision =
    if decision <= 0 || Runtime.opaque rt decision then sleep := 0
    else
      for q = 1 to n do
        let bitq = 1 lsl (q - 1) in
        if
          !sleep land bitq <> 0
          && (Runtime.opaque rt q || Runtime.conflict rt decision q)
        then sleep := !sleep land lnot bitq
      done
  in
  (* Productive processes whose next step is opaque (fresh start):
     excluded from child sleep sets — their first step depends on
     everything, so sleeping them would only be undone at the next
     wake. *)
  let opaque_mask () =
    let m = ref 0 in
    for q = 1 to n do
      if Bitset.mem pmask q && Runtime.opaque rt q then m := !m lor (1 lsl (q - 1))
    done;
    !m
  in
  (* POR: preempting the default process d in favour of q only matters if
     their next operations conflict. When they touch disjoint cells (or
     only read a shared one), d-then-q and q-then-d reach the same state
     for the same budget, and the q to-be-branched-next-step is the same
     preemption one step later — so the q branch is deferred, step by
     step, until the first conflicting position (or until q becomes the
     default for free). Crash decisions conflict with everything and a
     fresh process's first step is opaque, so both stay branched.
     DESIGN.md §5.13 gives the commutation argument. The conflict set is
     built in [w.dep] and stored into the choice point at [off]. *)
  let store_branch_mask default_pid off =
    let dep = w.dep in
    Bitset.clear dep;
    let opaque = Runtime.opaque rt default_pid in
    for q = 1 to n do
      if
        Bitset.mem pmask q
        && (opaque
           || q <> default_pid
              && (Runtime.opaque rt q || Runtime.conflict rt default_pid q))
      then Bitset.add dep q
    done;
    Bitset.store dep points.data off
  in
  (* A run whose divergence budget is spent can push no step sibling, so
     it records no choice point: its only children are crashes at its
     free positions. Without a visited set nothing reads the state
     between its steps either, so it steps straight: each default
     segment is one [Runtime.step_productive], which stops exactly where
     [scan] would switch away (the process blocks or finishes) or at the
     step cap, and [scan] runs only between segments. *)
  let spent = div_used >= divergence_bound in
  let straight = spent && Option.is_none vset in
  let continue = ref true in
  while !continue do
    continue := false;
    (* The alternative at [cut] is taken whatever the state, without a
       scan: a crash branched off a deadlock must run, not meet the same
       all-blocked state and report the deadlock again. *)
    let free = !pos >= forced_len in
    let d = if free then scan w ~cur:!cur else alt in
    if free && d = all_finished then ()
    else if free && d = stuck then begin
      (* Every runnable process is spinning on a condition no one can
         ever change: a genuine deadlock (a crash would reset it, but a
         failure-free suffix stays stuck — a liveness violation). *)
      deadlock := true;
      violation (deadlock_report rt)
    end
    else if !pos >= max_steps then begin
      capped := true;
      violation "step cap exceeded (possible livelock)"
    end
    else begin
      (* Budget accounting is precomputed in the item (free positions
         always take the default, so nothing is consumed here); the
         default is therefore free to be sleep-aware without perturbing
         any counter. *)
      let decision = if sleep_on && free then default_unslept d else d in
      if free && decision = 0 then
        (* Every productive process is asleep: each pending transition
           was already explored from an earlier sibling, so the whole
           remaining subtree is covered — truncate, like a visited
           state. *)
        pruned := true
      else begin
        let p = !pos in
        if free && not spent then begin
          let off = reserve points stride in
          let data = points.data in
          data.(off + cp_default) <- decision;
          data.(off + cp_sleep) <- !sleep;
          data.(off + cp_opaque) <- (if sleep_on then opaque_mask () else 0);
          Bitset.store pmask data (off + cp_sets);
          if por then store_branch_mask decision (off + cp_sets + width)
        end;
        (* The item carries the sleep set for exactly position [cut],
           where the checked part starts. *)
        if sleep_on && !sleep <> 0 then wake decision;
        let k =
          if decision = crash_decision then (Runtime.crash rt (); 1)
          else if decision < 0 then (Runtime.crash_one rt (-decision); 1)
          else begin
            cur := decision;
            if straight && free then
              Runtime.step_productive rt decision ~max:(max_steps - p)
            else (Runtime.step rt decision; 1)
          end
        in
        let off = reserve trail k in
        for j = off to off + k - 1 do
          trail.data.(j) <- decision
        done;
        pos := p + k;
        if not (covered ()) then continue := true
      end
    end
  done;
  if (not !capped) && not !pruned then finish w;
  (* Branch: preempting to another productive process costs divergence
     budget; injecting a crash costs crash budget. Positions inside the
     forced prefix were branched when their ancestors ran. The taken-trace
     array is materialized once and shared by every child (it is never
     mutated again). *)
  let trace = Array.sub trail.data 0 trail.len in
  let children = ref [] in
  let push it = children := it :: !children in
  (* Positions latest first: a deadlock's own position (the trace's
     length), then every free position, where a run with divergence
     left recorded choice point [i - forced_len]. A spent run has no
     step siblings, so with no crash budget left it has no children. *)
  let last = if !deadlock then !pos else !pos - 1 in
  if (not spent) || crashes_used < crash_bound || ones_used < crash_one_bound
  then
    for i = last downto forced_len do
      if i < !pos && not spent then begin
        let off = (i - forced_len) * stride in
        let data = points.data in
        let default_pid = data.(off + cp_default) in
        let sleep_at = data.(off + cp_sleep) and opaque_at = data.(off + cp_opaque) in
        let productive = off + cp_sets in
        (* Without POR every productive process is branchable. *)
        let branchable = if por then productive + width else productive in
        (* Step siblings actually branched from this choice point
           (productive, not the default, not POR-masked, not asleep), as
           a bitmask: each child's sleep set carries the siblings
           explored {e before} it — pop order within a choice point is
           descending pid, so that is every branched [p > pid] — plus the
           default (explored first, by the parent run itself), plus the
           inherited mask; minus opaque processes, whose first step
           depends on everything. The child's own wake rule at [cut] then
           drops whatever depends on [alt] (DESIGN.md §5.19). *)
        let branched = ref 0 in
        if sleep_on then
          for pid = 1 to n do
            if
              Bitset.mem_stored data productive pid
              && pid <> default_pid
              && sleep_at land (1 lsl (pid - 1)) = 0
              && Bitset.mem_stored data branchable pid
            then branched := !branched lor (1 lsl (pid - 1))
          done;
        for pid = 1 to n do
          if Bitset.mem_stored data productive pid && pid <> default_pid then
            if sleep_on && sleep_at land (1 lsl (pid - 1)) <> 0 then
              (* Asleep: this transition from this state was already
                 explored from an earlier sibling — suppress the branch
                 entirely. *)
              incr sleep_skips
            else if not (Bitset.mem_stored data branchable pid) then
              incr por_skips
            else
              let child_sleep =
                if sleep_on then
                  (sleep_at
                  lor (1 lsl (default_pid - 1))
                  lor (!branched land lnot ((1 lsl pid) - 1)))
                  land lnot opaque_at
                  land lnot (1 lsl (pid - 1))
                else 0
              in
              push
                {
                  base = trace;
                  cut = i;
                  alt = pid;
                  div_used = div_used + 1;
                  crashes_used;
                  ones_used;
                  sleep = child_sleep;
                }
        done
      end;
      (* Crash alternatives restart the sleep set: a crash depends on
         every transition. *)
      if crashes_used < crash_bound then
        push
          {
            base = trace;
            cut = i;
            alt = crash_decision;
            div_used;
            crashes_used = crashes_used + 1;
            ones_used;
            sleep = 0;
          };
      if ones_used < crash_one_bound then
        for pid = 1 to n do
          (* At the deadlock the runtime is still in the deadlocked
             state, and the victims are its runnable processes, every
             one spin-blocked. *)
          if i < !pos || Runtime.runnable rt pid then
            push
              {
                base = trace;
                cut = i;
                alt = -pid;
                div_used;
                crashes_used;
                ones_used = ones_used + 1;
                sleep = 0;
              }
        done
    done;
  {
    r_steps = !pos;
    r_capped = !capped;
    r_deadlock = !deadlock;
    r_pruned = !pruned;
    r_por_skips = !por_skips;
    r_sleep_skips = !sleep_skips;
    r_violations = List.rev !local_violations;
    r_children = List.rev !children;
    r_trace = trace;
  }

(* --- forced-schedule replay (storms and counterexample shrinking) --- *)

type replay_report = {
  rp_steps : int;
  rp_trace : int array;
  rp_interventions : (int * int) list;
  rp_violations : string list;
  rp_first_violation_pos : int option;
  rp_deadlock : bool;
  rp_capped : bool;
  rp_crashes : int;
  rp_crash_ones : int;
}

(* Replays one schedule driven by [decide] instead of tree search: same
   default policy, same deadlock/cap verdicts as [replay], but decisions
   come from a callback and may include the extended fault codes. An
   inapplicable decision (stepping a finished process, suppressing a
   process not at an await, ...) degrades to the default step — so probe
   replays during shrinking stay total and deterministic even when
   removing an early intervention invalidates a later one. *)
let run_schedule_in ?(max_steps = 20_000) ?(delay_window = 8) ~decide w =
  let local_violations = ref [] in
  let first_violation_pos = ref None in
  let pos = ref 0 in
  let violation msg =
    if !first_violation_pos = None then first_violation_pos := Some !pos;
    local_violations := msg :: !local_violations
  in
  reset w ~violation;
  let rt = w.rt and n = Memory.n w.mem in
  let trail = w.trail in
  trail.len <- 0;
  let interventions = ref [] in
  let cur = ref 0 in
  let crashes = ref 0 in
  let crash_ones = ref 0 in
  let capped = ref false in
  let deadlock = ref false in
  let stop = ref false in
  while not !stop do
    let default_pid = scan w ~cur:!cur in
    if default_pid = all_finished then stop := true
    else if default_pid = stuck && Runtime.drain_faults rt then
      (* A buffered write was the only way forward: flushing it may
         unblock a spinner, so re-evaluate before calling deadlock. *)
      ()
    else if default_pid = stuck then begin
      deadlock := true;
      violation (deadlock_report rt);
      stop := true
    end
    else if !pos >= max_steps then begin
      capped := true;
      violation "step cap exceeded (possible livelock)";
      stop := true
    end
    else begin
      let want =
        decide ~pos:!pos ~enabled:(Runtime.runnable_set rt)
          ~default:default_pid
      in
      let d =
        if want = crash_decision then want
        else if want > 0 then
          if want <= n && Runtime.runnable rt want then want else default_pid
        else begin
          let neg = -want in
          if neg <= n then
            if Runtime.runnable rt neg then want else default_pid
          else if neg <= 2 * n then
            if Runtime.awaiting rt (neg - n) then want else default_pid
          else if neg <= 3 * n then
            if Runtime.runnable rt (neg - (2 * n)) then want
            else default_pid
          else default_pid
        end
      in
      if d <> default_pid then interventions := (!pos, d) :: !interventions;
      (if d = crash_decision then begin
         incr crashes;
         Runtime.crash rt ()
       end
       else if d > 0 then begin
         Runtime.step rt d;
         cur := d
       end
       else
         let neg = -d in
         if neg <= n then begin
           incr crash_ones;
           Runtime.crash_one rt neg
         end
         else if neg <= 2 * n then ignore (Runtime.lose_wakeup rt (neg - n))
         else Runtime.delay_writes rt (neg - (2 * n)) ~window:delay_window);
      append trail d;
      incr pos
    end
  done;
  (* Finish checks run on every non-capped end, deadlocks included —
     exactly [replay]'s policy (there is no pruning here) — and see
     memory with every store buffer published: a write still parked
     when the last process finished reached memory as far as the
     algorithm is concerned. *)
  if not !capped then begin
    ignore (Runtime.drain_faults rt);
    finish w
  end;
  {
    rp_steps = !pos;
    rp_trace = Array.sub trail.data 0 trail.len;
    rp_interventions = List.rev !interventions;
    rp_violations = List.rev !local_violations;
    rp_first_violation_pos = !first_violation_pos;
    rp_deadlock = !deadlock;
    rp_capped = !capped;
    rp_crashes = !crashes;
    rp_crash_ones = !crash_ones;
  }

let run_schedule ?max_steps ?delay_window ~decide scenario =
  let w = world scenario in
  let r = run_schedule_in ?max_steps ?delay_window ~decide w in
  Runtime.reset w.rt;
  r

(* Pre-sizing hint for the next exploration's visited set: the previous
   reduced search's [distinct_states]. Repeated searches (E12's roster,
   test sweeps) then allocate their tables at full size up front instead
   of rehash-growing through the hot loop. A hint only — never affects
   counts or verdicts. *)
let last_distinct_states = Atomic.make 0

let explore ?(divergence_bound = 1) ?(crash_bound = 0) ?(crash_one_bound = 0)
    ?(max_steps = 20_000) ?(max_runs = 200_000) ?(stop_on_first = false)
    ?(reduction = No_reduction) ?(vset_mode = Exact) ?jobs:_
    ?(eager_fingerprints = false) scenario =
  let vset =
    match reduction with
    | No_reduction -> None
    | Dedup | Por | Sym -> (
      match vset_mode with
      | Exact ->
        Some
          (Parallel.Vset.create
             ~initial_capacity:(Atomic.get last_distinct_states)
             ())
      | Bitstate { bits; salt } ->
        Some (Parallel.Vset.create_bitstate ~salt ~bits ()))
  in
  let coding =
    match vset with
    | None -> Key_mix (* unused *)
    | Some vs ->
      (* Bitstate stores no per-key mask, so the budget vector must fold
         into the key itself (sound, just fewer merges). *)
      if Parallel.Vset.is_bitstate vs then Key_mix
      else budget_coding ~divergence_bound ~crash_bound ~crash_one_bound
  in
  let w = world scenario in
  let replay =
    replay ~world:w ~divergence_bound ~crash_bound
      ~crash_one_bound ~max_steps ~reduction ~vset ~coding
      ~eager:eager_fingerprints
  in
  (* Every run's contribution is folded in here, in DFS order.
     Violations are deduplicated via a hashed set (the recorded list
     stays in first-seen order). *)
  let runs = ref 0 in
  let steps = ref 0 in
  let violations = ref [] in
  let violation_count = ref 0 in
  let seen_violations = Hashtbl.create 32 in
  let step_cap_hits = ref 0 in
  let deadlocks = ref 0 in
  let pruned_runs = ref 0 in
  let pruned_branches = ref 0 in
  let sleep_pruned = ref 0 in
  (* The first violating run's decision sequence, replayable via
     {!run_schedule}. *)
  let witness = ref None in
  let record_violation msg =
    if
      !violation_count < max_recorded_violations
      && not (Hashtbl.mem seen_violations msg)
    then begin
      Hashtbl.add seen_violations msg ();
      violations := msg :: !violations;
      incr violation_count
    end
  in
  let tally r =
    incr runs;
    if !witness = None && r.r_violations <> [] then witness := Some r.r_trace;
    steps := !steps + r.r_steps;
    if r.r_capped then incr step_cap_hits;
    if r.r_deadlock then incr deadlocks;
    if r.r_pruned then incr pruned_runs;
    pruned_branches := !pruned_branches + r.r_por_skips;
    sleep_pruned := !sleep_pruned + r.r_sleep_skips;
    List.iter record_violation r.r_violations;
    r.r_children
  in
  let stop () = stop_on_first && !violation_count > 0 in
  let root =
    {
      base = [||];
      cut = 0;
      alt = no_alt;
      div_used = 0;
      crashes_used = 0;
      ones_used = 0;
      sleep = 0;
    }
  in
  (* Depth-first over the frontier (head = top of the stack); returns
     what [max_runs] or [stop_on_first] left unexplored. *)
  let rec search = function
    | it :: rest when !runs < max_runs && not (stop ()) ->
      search (List.rev_append (tally (replay it)) rest)
    | pending -> pending
  in
  let pending = search [ root ] in
  Runtime.reset w.rt;
  let bitstate_occupancy, collision_bound =
    match Option.bind vset Parallel.Vset.stats with
    | None -> (None, None)
    | Some (occ, bound) -> (Some occ, Some bound)
  in
  {
    runs = !runs;
    steps = !steps;
    violations = List.rev !violations;
    step_cap_hits = !step_cap_hits;
    deadlocks = !deadlocks;
    truncated = pending <> [];
    distinct_states =
      (match vset with
      | None -> 0
      | Some vs ->
        let c = Parallel.Vset.cardinal vs in
        (* The pre-sizing hint is exact-mode only: a bitstate cardinal is
           a lower bound, and bitstate allocates no growable tables. *)
        if not (Parallel.Vset.is_bitstate vs) then
          Atomic.set last_distinct_states c;
        c);
    pruned_runs = !pruned_runs;
    pruned_branches = !pruned_branches;
    sleep_pruned = !sleep_pruned;
    bitstate_occupancy;
    collision_bound;
    witness = !witness;
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "@[<v>runs=%d steps=%d cap-hits=%d deadlocks=%d truncated=%b \
     states=%d pruned-runs=%d pruned-branches=%d sleep-pruned=%d%t \
     violations=%d%a@]"
    o.runs o.steps o.step_cap_hits o.deadlocks o.truncated o.distinct_states
    o.pruned_runs o.pruned_branches o.sleep_pruned
    (fun ppf ->
      match (o.bitstate_occupancy, o.collision_bound) with
      | Some occ, Some bound ->
        Format.fprintf ppf " bitstate-occupancy=%.6f collision-bound=%.2e" occ
          bound
      | _ -> ())
    (List.length o.violations)
    (fun ppf vs -> List.iter (fun v -> Format.fprintf ppf "@,  %s" v) vs)
    o.violations
