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

type ctx = {
  violation : string -> unit;
  on_crash : (epoch:int -> unit) -> unit;
  on_crash_one : (pid:int -> unit) -> unit;
  on_finish : (unit -> unit) -> unit;
  on_fingerprint : (unit -> int) -> unit;
  on_sym_fingerprint : (int -> int) -> unit;
}

type scenario = {
  n : int;
  model : Memory.model;
  make_body : Memory.t -> ctx -> pid:int -> epoch:int -> unit;
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

(* --- the simulated world ---

   One instance of a scenario: its memory, the stack and monitors
   [make_body] built over it, the runtime and the hooks registered
   through [ctx]. [explore] builds one per call and {!reset}s it in place
   before every run (DESIGN.md §5.14): effect continuations are
   one-shot, so each run still replays from the root, but it no longer
   rebuilds the stack, the runtime or the monitors. [sink] is where
   [ctx.violation] delivers; each run points it at its own list. Hook
   lists are in reverse registration order, as they were consed. The
   scratch fields are reused by every run of the world; none of them
   carries state from one run to the next. *)
type world = {
  mem : Memory.t;
  rt : Runtime.t;
  sink : (string -> unit) ref;
  crash_one_hooks : (pid:int -> unit) list;
  finish_hooks : (unit -> unit) list;
  fp_hooks : (unit -> int) list;
  sym_hooks : (int -> int) list;
  pmask : Bitset.t; (* productive processes of the current step *)
  dep : Bitset.t; (* POR conflict set of the current choice point *)
  bundles : int array; (* per-pid digests of the current sym state *)
}

let world scenario =
  let n = scenario.n in
  let mem = Memory.create ~model:scenario.model ~n in
  let sink = ref ignore in
  let built = ref false in
  let register hooks h =
    if !built then
      invalid_arg "Model_check: hook registered after the scenario was built";
    hooks := h :: !hooks
  in
  let crash_hooks = ref [] in
  let crash_one_hooks = ref [] in
  let finish_hooks = ref [] in
  let fp_hooks = ref [] in
  let sym_hooks = ref [] in
  let ctx =
    {
      violation = (fun msg -> !sink msg);
      on_crash = register crash_hooks;
      on_crash_one = register crash_one_hooks;
      on_finish = register finish_hooks;
      on_fingerprint = register fp_hooks;
      on_sym_fingerprint = register sym_hooks;
    }
  in
  let body = scenario.make_body mem ctx in
  built := true;
  let rt = Runtime.create mem ~body in
  List.iter (Runtime.on_crash rt) !crash_hooks;
  {
    mem;
    rt;
    sink;
    crash_one_hooks = !crash_one_hooks;
    finish_hooks = !finish_hooks;
    fp_hooks = !fp_hooks;
    sym_hooks = !sym_hooks;
    pmask = Bitset.create n;
    dep = Bitset.create n;
    bundles = Array.make (max 1 n) 0;
  }

let reset w ~violation =
  Runtime.reset w.rt;
  Memory.reset w.mem;
  w.sink := violation

let memory w = w.mem
let runtime w = w.rt

(* The [Dedup]/[Por] state key: memory and runtime digests, every
   monitor hash registered through [ctx.on_fingerprint], and the
   scheduler's last-stepped process. *)
let state_fingerprint w ~cur =
  let h = Encode.mix (Memory.fingerprint w.mem) (Runtime.fingerprint w.rt) in
  let h = List.fold_left (fun h hook -> Encode.mix h (hook ())) h w.fp_hooks in
  Encode.mix h cur

(* Symmetry-canonical fingerprint (DESIGN.md §5.19): the residue
   (globals, cell count, epoch, permutation-invariant monitor parts)
   mixed with the SORTED per-pid bundle digests — each bundle a
   pid-independent hash of one process's control point, consumed-value
   signature, memory slice and monitor slice — plus the canonical rank
   of the last-stepped process. Two states related by a pid permutation
   hash equal; sorting quotients the orbit. Monitors that registered
   only the legacy [on_fingerprint] hook fold it into the residue raw:
   their pid-valued refs then pin the permutation (fewer merges, still
   sound — a monitor-distinct state never merges away, the §5.13
   footgun). The bundles live in the world's scratch array; no
   allocation per state. *)
let sym_fingerprint w ~cur =
  let mem = w.mem and rt = w.rt and bundles = w.bundles in
  let h0 = Encode.mix (Memory.sym_part mem 0) (Memory.cell_count mem) in
  let h0 = Encode.mix h0 (Runtime.epoch rt) in
  let h0 =
    if w.sym_hooks = [] then
      List.fold_left (fun h hook -> Encode.mix h (hook ())) h0 w.fp_hooks
    else List.fold_left (fun h hook -> Encode.mix h (hook 0)) h0 w.sym_hooks
  in
  let n = Memory.n mem in
  for pid = 1 to n do
    let b =
      Encode.mix (Runtime.sym_contribution rt pid) (Memory.sym_part mem pid)
    in
    let b =
      List.fold_left (fun h hook -> Encode.mix h (hook pid)) b w.sym_hooks
    in
    bundles.(pid - 1) <- b
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
     0, i.e. disables the fast-forward; outcomes must not change. *)
  if eager then begin
    ignore (Memory.fingerprint mem);
    ignore (Runtime.fingerprint rt)
  end;
  let forced_len = if alt <> no_alt then cut + 1 else cut in
  let forced i = if i < cut then base.(i) else alt in
  (* The trace actually taken, and the positions at which alternatives
     remain to be explored. *)
  let taken = ref [] in
  let choice_points = ref [] in
  let cur = ref 0 in
  (* The budget consumed by the forced part, precomputed by the parent
     (see {!item}): free positions always take the default, so these
     never move past [forced_len]. *)
  let divergences = ref div_used in
  let crashes = ref crashes_used in
  let crash_ones = ref ones_used in
  let pos = ref 0 in
  let steps = ref 0 in
  let capped = ref false in
  let deadlock = ref false in
  let pruned = ref false in
  let por_skips = ref 0 in
  let sleep_skips = ref 0 in
  let symred = reduction = Sym in
  let sleep_on = symred && n <= max_sleep_pids in
  let sleep = ref (if sleep_on then sleep0 else 0) in
  (* [enabled] pids that were spin-blocked at the deadlock, for the
     diagnostic and the crash_one branch victims. *)
  let deadlock_enabled = ref [] in
  (* Productive (= enabled and not spin-blocked) processes of the current
     step, as a reusable bitmask (same layout as Memory's reader bitsets)
     instead of a freshly allocated List.filter per step. *)
  let pmask = w.pmask in
  (* After executing each decision at a position >= cut (positions before
     the branch point retrace states the parent run already owned and
     inserted): stop if the resulting state, at the current
     consumed-budget vector, is covered by an earlier run. Note the
     fingerprint is {e history-qualified}: a process's local signature
     hashes the whole value sequence it consumed, so two runs merge
     exactly when every process consumed the same values in its own order
     — commuting interleavings, the bulk of the schedule explosion — and
     a state revisited {e within} one run (a genuine livelock cycle)
     still hashes fresh. Livelocks therefore keep hitting the step cap,
     same as without reduction. *)
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
      let bit, closure, key =
        match coding with
        | Closure closures ->
          let pack =
            min !divergences divergence_bound
            + ((divergence_bound + 1)
               * (min !crashes crash_bound
                 + ((crash_bound + 1) * min !crash_ones crash_one_bound)))
          in
          (1 lsl pack, closures.(pack), fp)
        | Key_mix ->
          let key =
            Encode.mix (Encode.mix (Encode.mix fp !divergences) !crashes)
              !crash_ones
          in
          (1, 1, key)
      in
      if Parallel.Vset.covers_or_add vs key ~bit ~closure then begin
        pruned := true;
        true
      end
      else false
  in
  (* Run-until-blocked default: keep stepping the current process while
     it is productive; on spin-block or completion, rotate to the next
     productive process. Fair, and terminating for livelock-free
     algorithms. *)
  let default () =
    if Bitset.mem pmask !cur then !cur
    else
      match Bitset.first_gt pmask !cur with
      | Some pid -> pid
      | None -> Option.get (Bitset.first pmask)
  in
  (* Sleep-aware default ([Sym] only): same run-until-blocked rotation,
     skipping processes whose next transition an earlier sibling already
     explored. [None] when every productive process is asleep — the
     whole remaining subtree is covered elsewhere, so the run truncates
     (DESIGN.md §5.19). *)
  let slept q = !sleep land (1 lsl (q - 1)) <> 0 in
  let rec first_unslept_gt p =
    match Bitset.first_gt pmask p with
    | None -> None
    | Some q -> if slept q then first_unslept_gt q else Some q
  in
  let default_unslept () =
    if !sleep = 0 then Some (default ())
    else if Bitset.mem pmask !cur && not (slept !cur) then Some !cur
    else
      match first_unslept_gt !cur with
      | Some q -> Some q
      | None -> first_unslept_gt 0
  in
  let footprints_conflict df qf =
    List.exists
      (fun (c1, w1) -> List.exists (fun (c2, w2) -> c1 = c2 && (w1 || w2)) qf)
      df
  in
  (* Wake rule: executing a transition removes from the sleep set every
     process whose pending operation depends on it (Godefroid's
     independence filter — the slept copy of a dependent transition is
     no longer covered by its earlier exploration once the order
     matters). Crashes and opaque (fresh-start) steps depend on
     everything. Uses pre-execution footprints: called before the
     decision runs. *)
  let wake decision =
    if decision <= 0 then sleep := 0
    else
      match Runtime.step_footprint rt decision with
      | None -> sleep := 0
      | Some df ->
        for q = 1 to n do
          let bitq = 1 lsl (q - 1) in
          if !sleep land bitq <> 0 then
            match Runtime.step_footprint rt q with
            | None -> sleep := !sleep land lnot bitq
            | Some qf ->
              if footprints_conflict df qf then sleep := !sleep land lnot bitq
        done
  in
  (* Productive processes whose next step is opaque (fresh start):
     excluded from child sleep sets — their first step depends on
     everything, so sleeping them would only be undone at the next
     wake. *)
  let opaque_mask () =
    let m = ref 0 in
    Bitset.iter
      (fun q ->
        match Runtime.step_footprint rt q with
        | None -> m := !m lor (1 lsl (q - 1))
        | Some _ -> ())
      pmask;
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
     DESIGN.md §5.13 gives the commutation argument. *)
  (* Conflict-set scratch for [branch_mask], reused across choice points
     (cleared per call). Only the [Bitset.snapshot] it returns escapes —
     choice points outlive the loop, so those snapshots must stay. *)
  let branch_mask default_pid =
    let dep = w.dep in
    Bitset.clear dep;
    (match Runtime.step_footprint rt default_pid with
    | None -> Bitset.iter (fun q -> Bitset.add dep q) pmask
    | Some df ->
      Bitset.iter
        (fun q ->
          if q = default_pid then ()
          else
            match Runtime.step_footprint rt q with
            | None -> Bitset.add dep q
            | Some qf -> if footprints_conflict df qf then Bitset.add dep q)
        pmask);
    Bitset.snapshot dep
  in
  let rec loop () =
    match Runtime.enabled rt with
    | [] -> ()
    | enabled ->
      Bitset.clear pmask;
      List.iter
        (fun p -> if not (Runtime.blocked rt p) then Bitset.add pmask p)
        enabled;
      if Bitset.is_empty pmask then begin
        (* Every runnable process is spinning on a condition no one can
           ever change: a genuine deadlock (a crash would reset it, but
           a failure-free suffix stays stuck — a liveness violation). *)
        deadlock := true;
        deadlock_enabled := enabled;
        let where =
          String.concat ", "
            (List.map
               (fun p ->
                 Printf.sprintf "p%d@%s" p
                   (Option.value ~default:"?" (Runtime.blocked_on rt p)))
               enabled)
        in
        violation ("deadlock: " ^ where)
      end
      else if !pos >= max_steps then begin
        capped := true;
        violation "step cap exceeded (possible livelock)"
      end
      else begin
        let free = !pos >= forced_len in
        (* Budget accounting is precomputed in the item (free positions
           always take the default, so nothing is consumed here); the
           default is therefore free to be sleep-aware without
           perturbing any counter. *)
        let default_choice =
          if sleep_on && free then default_unslept () else Some (default ())
        in
        match default_choice with
        | None ->
          (* Every productive process is asleep: each pending transition
             was already explored from an earlier sibling, so the whole
             remaining subtree is covered — truncate, like a visited
             state. *)
          pruned := true
        | Some default_pid ->
          let decision = if free then default_pid else forced !pos in
          if free then begin
            let branchable =
              match reduction with
              | Por | Sym -> Some (branch_mask default_pid)
              | No_reduction | Dedup -> None
            in
            choice_points :=
              ( !pos,
                Bitset.snapshot pmask,
                branchable,
                default_pid,
                !divergences,
                !crashes,
                !crash_ones,
                !sleep,
                if sleep_on then opaque_mask () else 0 )
              :: !choice_points
          end;
          (* The sleep set is valid from [cut] (the item carries the mask
             for exactly that position); earlier positions retrace
             ancestor history from before the mask existed. *)
          if sleep_on && !pos >= cut && !sleep <> 0 then wake decision;
          if decision = crash_decision then Runtime.crash rt ()
          else if decision < 0 then begin
            let victim = -decision in
            Runtime.crash_one rt victim;
            List.iter (fun h -> h ~pid:victim) w.crash_one_hooks
          end
          else begin
            Runtime.step rt decision;
            cur := decision
          end;
          let p = !pos in
          taken := decision :: !taken;
          incr pos;
          incr steps;
          if p < cut || not (covered ()) then loop ()
      end
  in
  loop ();
  if (not !capped) && not !pruned then List.iter (fun h -> h ()) w.finish_hooks;
  (* Branch: preempting to another productive process costs divergence
     budget; injecting a crash costs crash budget. Positions inside the
     forced prefix were branched when their ancestors ran. The taken-trace
     array is materialized once and shared by every child (it is never
     mutated again). *)
  let trace = Array.of_list (List.rev !taken) in
  let children = ref [] in
  let push it = children := it :: !children in
  if !deadlock then begin
    (* The deadlock was reached with the full trace taken, so the branch
       position is the trace's length. Crash alternatives restart the
       sleep set: a crash depends on every transition. *)
    if !crashes < crash_bound then
      push
        {
          base = trace;
          cut = !pos;
          alt = crash_decision;
          div_used = !divergences;
          crashes_used = !crashes + 1;
          ones_used = !crash_ones;
          sleep = 0;
        };
    if !crash_ones < crash_one_bound then
      List.iter
        (fun pid ->
          push
            {
              base = trace;
              cut = !pos;
              alt = -pid;
              div_used = !divergences;
              crashes_used = !crashes;
              ones_used = !crash_ones + 1;
              sleep = 0;
            })
        !deadlock_enabled
  end;
  List.iter
    (fun ( i,
           productive,
           branchable,
           default_pid,
           div_before,
           crashes_before,
           crash_ones_before,
           sleep_at,
           opaque_at ) ->
      if div_before < divergence_bound then begin
        (* Step siblings actually branched from this choice point
           (productive, not the default, not POR-masked, not asleep), as
           a bitmask: each child's sleep set carries the siblings
           explored {e before} it — pop order within a choice point is
           descending pid, so that is every branched [p > pid] — plus
           the default (explored first, by the parent run itself), plus
           the inherited mask; minus opaque processes, whose first step
           depends on everything. The child's own wake rule at [cut]
           then drops whatever depends on [alt] (DESIGN.md §5.19). *)
        let branched =
          if sleep_on then begin
            let m = ref 0 in
            Bitset.iter
              (fun pid ->
                if
                  pid <> default_pid
                  && sleep_at land (1 lsl (pid - 1)) = 0
                  &&
                  match branchable with
                  | Some mask -> Bitset.mem mask pid
                  | None -> true
                then m := !m lor (1 lsl (pid - 1)))
              productive;
            !m
          end
          else 0
        in
        Bitset.iter
          (fun pid ->
            if pid <> default_pid then
              if sleep_on && sleep_at land (1 lsl (pid - 1)) <> 0 then
                (* Asleep: this transition from this state was already
                   explored from an earlier sibling — suppress the
                   branch entirely. *)
                incr sleep_skips
              else
                match branchable with
                | Some mask when not (Bitset.mem mask pid) -> incr por_skips
                | Some _ | None ->
                  let child_sleep =
                    if sleep_on then
                      (sleep_at
                      lor (1 lsl (default_pid - 1))
                      lor (branched land lnot ((1 lsl pid) - 1)))
                      land lnot opaque_at
                      land lnot (1 lsl (pid - 1))
                    else 0
                  in
                  push
                    {
                      base = trace;
                      cut = i;
                      alt = pid;
                      div_used = div_before + 1;
                      crashes_used = crashes_before;
                      ones_used = crash_ones_before;
                      sleep = child_sleep;
                    })
          productive
      end;
      if crashes_before < crash_bound then
        push
          {
            base = trace;
            cut = i;
            alt = crash_decision;
            div_used = div_before;
            crashes_used = crashes_before + 1;
            ones_used = crash_ones_before;
            sleep = 0;
          };
      if crash_ones_before < crash_one_bound then
        for pid = 1 to n do
          push
            {
              base = trace;
              cut = i;
              alt = -pid;
              div_used = div_before;
              crashes_used = crashes_before;
              ones_used = crash_ones_before + 1;
              sleep = 0;
            }
        done)
    !choice_points;
  {
    r_steps = !steps;
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
  let taken = ref [] in
  let interventions = ref [] in
  let cur = ref 0 in
  let crashes = ref 0 in
  let crash_ones = ref 0 in
  let capped = ref false in
  let deadlock = ref false in
  let pmask = w.pmask in
  let stop = ref false in
  while not !stop do
    match Runtime.enabled rt with
    | [] -> stop := true
    | enabled ->
      Bitset.clear pmask;
      List.iter
        (fun p -> if not (Runtime.blocked rt p) then Bitset.add pmask p)
        enabled;
      if Bitset.is_empty pmask && Runtime.drain_faults rt then
        (* A buffered write was the only way forward: flushing it may
           unblock a spinner, so re-evaluate before calling deadlock. *)
        ()
      else if Bitset.is_empty pmask then begin
        deadlock := true;
        let where =
          String.concat ", "
            (List.map
               (fun p ->
                 Printf.sprintf "p%d@%s" p
                   (Option.value ~default:"?" (Runtime.blocked_on rt p)))
               enabled)
        in
        violation ("deadlock: " ^ where);
        stop := true
      end
      else if !pos >= max_steps then begin
        capped := true;
        violation "step cap exceeded (possible livelock)";
        stop := true
      end
      else begin
        let default_pid =
          if Bitset.mem pmask !cur then !cur
          else
            match Bitset.first_gt pmask !cur with
            | Some pid -> pid
            | None -> Option.get (Bitset.first pmask)
        in
        let want = decide ~pos:!pos ~enabled ~default:default_pid in
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
             Runtime.crash_one rt neg;
             List.iter (fun h -> h ~pid:neg) w.crash_one_hooks
           end
           else if neg <= 2 * n then ignore (Runtime.lose_wakeup rt (neg - n))
           else Runtime.delay_writes rt (neg - (2 * n)) ~window:delay_window);
        taken := d :: !taken;
        incr pos
      end
  done;
  (* Finish checks run on every non-capped end, deadlocks included —
     exactly [replay]'s policy (there is no pruning here). *)
  if not !capped then List.iter (fun h -> h ()) w.finish_hooks;
  {
    rp_steps = !pos;
    rp_trace = Array.of_list (List.rev !taken);
    rp_interventions = List.rev !interventions;
    rp_violations = List.rev !local_violations;
    rp_first_violation_pos = !first_violation_pos;
    rp_deadlock = !deadlock;
    rp_capped = !capped;
    rp_crashes = !crashes;
    rp_crash_ones = !crash_ones;
  }

let run_schedule ?max_steps ?delay_window ~decide scenario =
  run_schedule_in ?max_steps ?delay_window ~decide (world scenario)

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
  let replay =
    replay ~world:(world scenario) ~divergence_bound ~crash_bound
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
